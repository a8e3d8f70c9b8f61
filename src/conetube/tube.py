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
mu_hat^2 = k0 + k1 theta^2 is produced both numerically and by a jet
pipeline on the geometric curve.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .config import TOLERANCES
from .curves import GeometricCurve
from .holonomy import y_from_l2
from .jets import Jet, JetError, jet_sqrt, real_modulus_jet
from .surgery import (
    CurveJets,
    Slope,
    SolvedStructure,
    SurgeryError,
    cone_jets,
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
    trc = -y_from_l2(ev.m2, ev.l2)
    trp = ev.m2 + 1.0 / ev.m2
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


# slopes per batched jet pass: bounds the temporaries of a long scan
_SCAN_BLOCK = 256


def _mu_hat_sq_jet(m: Jet, l: Jet, core: Jet) -> Jet:
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


def k_expansions(
    curve: GeometricCurve, p: Sequence[int], q: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """(k0, k1) float columns for the slopes (p[i], q[i]), by batched jet expansion.

    ``p`` and ``q`` are integer columns (lists or integer arrays) of coprime
    slopes within float range. No ``Slope`` or ``KExpansion`` is built: the
    columns go to ``cone_jets`` as floats, in blocks of ``_SCAN_BLOCK``,
    each block as one batch of jets. A guard that refuses any row refuses
    the scan, with the guard's exception type and the exact integers of
    the first failing slope.
    """
    if len(p) != len(q):
        raise TubeError(f"{len(p)} numerators against {len(q)} denominators")
    # a list may mix int64- and uint64-sized ints, which np.gcd cannot pair
    p, q = (c if isinstance(c, np.ndarray) else np.array(c, dtype=object) for c in (p, q))
    pf, qf = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    k0, k1 = np.empty(len(pf)), np.empty(len(pf))
    jets = CurveJets.of(curve)
    for start in range(0, len(pf), _SCAN_BLOCK):
        rows = slice(start, start + _SCAN_BLOCK)
        shared = np.gcd(p[rows], q[rows]) != 1
        if shared.any():
            i = start + int(np.argmax(shared))
            raise SurgeryError(f"slope ({p[i]}, {q[i]}) is not coprime")
        try:
            mu_hat_sq = _mu_hat_sq_jet(*cone_jets(jets, pf[rows], qf[rows]))
        except JetError as exc:
            if exc.row is None:
                raise
            i = start + exc.row
            raise type(exc)(f"slope ({p[i]}, {q[i]}): {exc.reason}") from exc
        c = mu_hat_sq.coeffs
        stray = np.maximum(np.abs(c[:, 1]), mu_hat_sq.imag_max())
        loud = stray > TOLERANCES.vanishing * np.maximum(1.0, np.abs(c[:, 0]))
        if loud.any():
            i = int(np.argmax(loud))
            raise TubeError(
                f"slope ({p[start + i]}, {q[start + i]}): mu_hat^2 jet has stray "
                f"odd/imaginary part {stray[i]:.3e}"
            )
        k0[rows], k1[rows] = c[:, 0].real, c[:, 2].real
    return k0, k1


def k_expansion_closed_form(curve: GeometricCurve, slope2: Slope) -> KExpansion:
    """(k0, k1) by jet expansion of the tube quantities on the curve.

    The one-slope case of ``k_expansions``.
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


# k1 of whitehead_k_reference at x = p/q is N(x) / (12 D(x)^2); ascending powers
_K1_NUM = (-128.0, -128.0, -48.0, -8.0, -1.0)
_K1_DEN = (8.0, 4.0, 1.0)


def k1_range_check(samples: int = 1_000_000) -> tuple[float, float]:
    """Extrema of the k1 rational function over slopes x = p/q.

    The interior extrema sit at the real roots of the derivative's
    numerator N'D - 2ND' (D has no real root), and the x -> +-infinity
    limit is -1/12. The real part of a complex root is just another point
    of the line, so taking every root's real part cannot widen the range.
    A dense grid on [-1e4, 1e4], graded toward the origin where the
    structure lives, joins those values as a cross-check.
    """
    # only this check needs numpy.polynomial; importing it here keeps it
    # out of the package import
    from numpy.polynomial import Polynomial

    if samples < 1000:
        raise TubeError("need at least 1000 samples")
    num, den = Polynomial(_K1_NUM), Polynomial(_K1_DEN)

    def k1(x: np.ndarray) -> np.ndarray:
        return num(x) / (12.0 * den(x) ** 2)

    half = samples // 2
    core = np.linspace(-50.0, 50.0, samples - half)
    tails = np.concatenate(
        [
            -np.logspace(math.log10(50.0), 4.0, half // 2),
            np.logspace(math.log10(50.0), 4.0, half - half // 2),
        ]
    )
    critical = (num.deriv() * den - 2.0 * num * den.deriv()).roots().real
    vals = np.concatenate([k1(core), k1(tails), k1(critical), [-1.0 / 12.0]])
    return float(vals.min()), float(vals.max())
