"""Maximal-tube geometry: radius, core length, and meridian normalization.

The singular core of a filled cusp is surrounded by its maximal embedded
tube. Half the distance from the core's axis to its nearest translate
under the tie-class element gives the radius R; in trace terms

    cosh(2R) = |bc| + |bc + 1|,   bc = -(tr[w, g] - 2) / (tr^2 g - 4),

where g is the peripheral element with eigenvalue m2 and w the tie class
(bc is the off-diagonal product of w in the frame diagonalizing g). The
commutator trace is the holonomy family's parameter: tr[w, g] - 2 = -y,
with y = ``holonomy.y_from_l2(m2, l2)`` = (m2^2 - 1)(1 - l2) / (m2^2 + l2).

The core length has one definition, t = 2 |Re(r log(-m2) + s log(-l2))|
for the dual (r, s) of the slope, taken from the branch-continued logs
the solver carries. From R, t, and the cone angle theta: meridian length
mu = theta sinh R, tube-boundary area theta t sinh R cosh R, and the
normalized square mu_hat^2 = theta tanh(R)/t, whose small-angle expansion
mu_hat^2 = k0 + k1 theta^2 is produced numerically (``fit_k_expansion``)
and in closed form from the curve's (a1, a2, a3) (``k_expansions``). With
w = p + q a1 and c the cubic coefficient of the curve's log-series,
log(-l) = a1 u + b u^2 + c u^3 + O(u^4) with u = log(-m),

    c  = (2 a1^3 - 3 a1^2 + 3 a1 a2 + a1 - 3 a2 + a3) / 6,
    k0 = |w|^2 / |Im a1|,
    k1 = -|a1 - 2| / (8 |Im a1|) + Im(c conj(w)^4) / (4 Im a1 |Im a1| |w|^4):

the first term of k1 comes from the tube radius and does not depend on
the slope, the second from the core length. One row of order-3 theta-jets
per slope (tests/oracles.py) matches these within 2.9e-15 relative on the
24,464 coprime slopes of norm <= 200 of the unfilled curve and the filled
(9, 1), (12, -5), (-40, 9) stencil curves, symmetrized and not. On the
unfilled curve, a1 = 2 + 2i and c = 2i/3, so k1 = -1/8 + Re(w^4) / (24 |w|^4).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .config import TOLERANCES
from .curves import UNFILLED_A1, GeometricCurve, expand_from_polynomial, whitehead_a_polynomial
from .holonomy import y_from_l2
from .jets import JetError
from .surgery import (
    MAX_CONE_NORM,
    Slope,
    SolvedStructure,
    SurgeryError,
    _check_curve,
    solve_cone_structure,
)


class TubeError(ValueError):
    pass


def tube_cosh2R(tr_comm_minus2: complex, tr_peripheral: complex) -> float:
    """cosh(2R) = |bc| + |bc + 1| from the frame-invariant bc."""
    denom = tr_peripheral * tr_peripheral - 4.0
    if abs(denom) < TOLERANCES.singular:
        raise TubeError("parabolic peripheral element: tube radius undefined")
    bc = -complex(tr_comm_minus2) / denom
    return abs(bc) + abs(bc + 1.0)


@dataclasses.dataclass(frozen=True)
class TubeMeasurement:
    theta: float
    cosh2R: float
    R: float
    t: float
    mu: float
    mu_hat_sq: float

    def check(self) -> None:
        tol = TOLERANCES.tube_identity
        if not (self.R > 0 and self.t > 0 and self.mu > 0 and self.mu_hat_sq > 0):
            raise TubeError(f"non-positive tube measurement {self!r}")
        if abs(self.mu - self.theta * math.sinh(self.R)) > tol * max(1.0, self.mu):
            raise TubeError("mu = theta sinh R violated")
        area = self.theta * self.t * math.sinh(self.R) * math.cosh(self.R)
        if abs(self.mu_hat_sq - self.mu**2 / area) > tol * self.mu_hat_sq:
            raise TubeError("area identity violated")


def measure_tube(structure: SolvedStructure) -> TubeMeasurement:
    """TubeMeasurement of a solved cone structure (theta > 0)."""
    theta = structure.theta
    if theta <= 0:
        raise TubeError("theta = 0 is the cusp limit: no tube to measure")
    ev = structure.point.eigenvalues
    trp = ev.m2 + 1.0 / ev.m2
    # before y_from_l2: where m2 rounds to -1, so does l2, on its exceptional locus
    if abs(trp * trp - 4.0) < TOLERANCES.singular:
        raise TubeError(
            f"theta {theta:g} is below what the float pipeline resolves: "
            "the peripheral element is parabolic to rounding"
        )
    trc = -y_from_l2(ev.m2, ev.l2)
    c2r = tube_cosh2R(trc, trp)
    R = 0.5 * math.acosh(max(1.0, c2r))
    sl = structure.slope2
    t = 2.0 * abs(
        (sl.r * structure.point.log_m2 + sl.s * structure.point.log_l2).real
    )
    if t <= 0 or R <= 0:
        raise TubeError("degenerate core or tube")
    mu = theta * math.sinh(R)
    mu_hat_sq = theta * math.tanh(R) / t
    out = TubeMeasurement(
        theta=theta, cosh2R=c2r, R=R, t=t, mu=mu, mu_hat_sq=mu_hat_sq
    )
    out.check()
    return out


def mu_hat_squared_numeric(
    slope1: Slope | None, slope2: Slope, theta: float
) -> TubeMeasurement:
    """Full pipeline: solve the structure at theta, then measure the tube."""
    return measure_tube(solve_cone_structure(slope1, slope2, theta))


@dataclasses.dataclass(frozen=True)
class KExpansion:
    """mu_hat^2(theta) = k0 + k1 theta^2 + O(theta^3)."""

    k0: float
    k1: float
    slope2: Slope
    source: str


def _k1_form(curve: GeometricCurve) -> tuple[float, complex]:
    """(centre, c) of the module docstring's k1: its slope-free term and the log-series cubic.

    c takes the general form, not its short form on the involution
    a2 = a1 - a1^2, which a sampled curve meets only to about 1e-11.
    """
    a1, a2, a3 = curve.a1, curve.a2, curve.a3
    c = (2 * a1**3 - 3 * a1**2 + 3 * a1 * a2 + a1 - 3 * a2 + a3) / 6
    return -abs(a1 - 2) / (8 * abs(a1.imag)), c


def k_expansions(
    curve: GeometricCurve, p: Sequence[int], q: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """(k0, k1) float columns for the slopes (p[i], q[i]), in closed form from (a1, a2, a3).

    ``p`` and ``q`` are integer columns (lists or integer arrays) of coprime
    slopes within float range. With w = p + q a1 and the curve's log-series
    coefficient c (``_k1_form``), k0 = |w|^2 / |Im a1| and
    k1 = -|a1 - 2| / (8 |Im a1|) + Im(c conj(w)^4) / (4 Im a1 |Im a1| |w|^4),
    read at (p, q) / (|p| + |q|), so no power overflows. The curve is
    refused as ``cone_expansion`` refuses it, and then the first slope that
    is not coprime or above ``MAX_CONE_NORM``, with the guard's exception
    type and the exact integers of the slope.
    """
    if len(p) != len(q):
        raise TubeError(f"{len(p)} numerators against {len(q)} denominators")
    _check_curve(curve)
    # a list may mix int64- and uint64-sized ints, which np.gcd cannot pair
    p, q = (c if isinstance(c, np.ndarray) else np.array(c, dtype=object) for c in (p, q))
    x, y = np.array(p, dtype=float), np.array(q, dtype=float)
    shared = np.gcd(p, q) != 1
    bad = shared | (np.abs(x) > MAX_CONE_NORM - np.abs(y))
    if bad.any():
        i = int(np.argmax(bad))
        if shared[i]:
            raise SurgeryError(f"slope ({p[i]}, {q[i]}) is not coprime")
        # cone_jets' guard, kept so that no slope reads here what its jets would refuse
        reason = f"|p| + |q| above {MAX_CONE_NORM:.0e}, where the theta-jets underflow"
        raise JetError(f"slope ({p[i]}, {q[i]}): {reason}")
    centre, c = _k1_form(curve)
    a1 = curve.a1
    s = np.abs(x) + np.abs(y)
    x /= s  # in place: each column of a 0.6 M-slope scan is 5 MiB
    y /= s
    x += y * a1.real  # w = x + iy = p + q a1 at (p, q) / (|p| + |q|)
    y *= a1.imag
    d = x * x + y * y  # |w|^2
    r, t = x * x - y * y, -2.0 * x * y  # conj(w)^2 = r + it
    k1 = c.imag * (r * r - t * t) + 2.0 * c.real * r * t  # Im(c conj(w)^4)
    k1 /= 4 * a1.imag * abs(a1.imag) * d * d
    return s * s * d / abs(a1.imag), k1 + centre


def k_expansion_closed_form(curve: GeometricCurve, slope2: Slope) -> KExpansion:
    """(k0, k1) of mu_hat^2 on the curve at one slope: the one-slope case of ``k_expansions``.

    ``source`` keeps the label "numeric-jet" that the CLI prints: it names
    the curve's route, against ``whitehead_k_reference``'s "closed-form".
    """
    k0, k1 = k_expansions(curve, [slope2.p], [slope2.q])
    return KExpansion(k0=float(k0[0]), k1=float(k1[0]), slope2=slope2, source="numeric-jet")


def whitehead_k_reference(slope2: Slope) -> KExpansion:
    """Reference (k0, k1) for the unfilled exterior's curve (a1 = 2 + 2i)."""
    p, q = slope2.p, slope2.q
    k0 = (p * p + 4 * p * q + 8 * q * q) / 2.0
    k1 = -(
        p**4 + 8 * p**3 * q + 48 * p**2 * q**2 + 128 * p * q**3 + 128 * q**4
    ) / (12.0 * (p * p + 4 * p * q + 8 * q * q) ** 2)
    return KExpansion(k0=k0, k1=k1, slope2=slope2, source="closed-form")


def fit_k_expansion(
    slope1: Slope | None,
    slope2: Slope,
    thetas: Sequence[float] = (0.02, 0.04, 0.06, 0.08, 0.10),
) -> tuple[float, float]:
    """Least-squares (k0, k1) from numeric mu_hat^2 over the theta grid.

    mu_hat^2 is even in theta (the conjugate angle gives the conjugate
    structure), so the fit is quadratic in theta^2: {1, theta^2, theta^4}.
    The quartic column is a nuisance term absorbing the Taylor remainder;
    without it the k1 estimate is biased at the 1e-3 level on this grid.
    """
    ths = np.asarray(list(thetas), dtype=float)
    if ths.size < 3:
        raise TubeError("need at least three angles to fit")
    vals = np.array(
        [mu_hat_squared_numeric(slope1, slope2, th).mu_hat_sq for th in ths]
    )
    basis = np.column_stack([np.ones_like(ths), ths**2, ths**4])
    coeffs, *_ = np.linalg.lstsq(basis, vals, rcond=None)
    return float(coeffs[0]), float(coeffs[1])


def k1_range_check(samples: int = 1_000_000) -> tuple[float, float]:
    """Extrema of the unfilled curve's k1 over all real second-cusp slopes, in closed form.

    k1 depends on the slope only through 4 arg(p + q a1), so over real
    slopes it fills [centre - radius, centre + radius] with centre
    -|a1 - 2| / (8 |Im a1|) and radius |c| / (4 (Im a1)^2) (``_k1_form``),
    both ends attained. The built-in polynomial's curve has a1 = 2 + 2i and
    c = 2i/3: centre -1/8, radius 1/24, so [-1/6, -1/12]. The ends are
    exact, so no grid is sampled: ``samples`` stays for its callers and
    must be at least 1000.
    """
    if samples < 1000:
        raise TubeError("need at least 1000 samples")
    curve = expand_from_polynomial(whitehead_a_polynomial(), -1, -1, UNFILLED_A1).symmetrized()
    centre, c = _k1_form(curve)
    radius = abs(c) / (4 * curve.a1.imag**2)
    return centre - radius, centre + radius
