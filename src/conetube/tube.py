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
pipeline on the geometric curve. The jets give k0 = |p + q a1|^2 / Im a1
and k1 = N(p, q) / |p + q a1|^4, N a real quartic: one jet row per slope
matched that within 1.1e-14 relative on the 24,464 coprime slopes of norm
<= 200 of the unfilled and filled (9, 1), (12, -5), (-40, 9), (8, 3) curves.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Sequence

import numpy as np

from .config import TOLERANCES
from .curves import UNFILLED_A1, GeometricCurve, expand_from_polynomial, whitehead_a_polynomial
from .holonomy import y_from_l2
from .jets import Jet, JetError, jet_sqrt, real_modulus_jet
from .surgery import (
    MAX_CONE_NORM,
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


@functools.lru_cache(maxsize=64)
def _k_quartic(curve: GeometricCurve) -> tuple[float, ...]:
    """(c_0, ..., c_4) of N(p, q) = sum c_k p^k q^(4 - k) = k1 |p + q a1|^4, from node jets."""
    # x = p/q at infinity, 0, -1, -2, -4: spread about x = -Re a1, where scans read N
    p, q = np.array([[1, 0, -1, -2, -4], [0, 1, 1, 1, 1]])
    jet = _mu_hat_sq_jet(*cone_jets(CurveJets.of(curve), p.astype(float), q.astype(float)))
    c = jet.coeffs
    stray = np.maximum(np.abs(c[:, 1]), jet.imag_max())
    loud = stray > TOLERANCES.vanishing * np.maximum(1.0, np.abs(c[:, 0]))
    if loud.any():
        i = int(np.argmax(loud))
        msg = f"slope ({p[i]}, {q[i]}): mu_hat^2 jet has stray odd/imaginary part {stray[i]:.3e}"
        raise TubeError(msg)
    monomials = p[:, None] ** np.arange(5) * q[:, None] ** np.arange(4, -1, -1)
    return tuple(np.linalg.solve(monomials, c[:, 2].real * np.abs(p + q * curve.a1) ** 4).tolist())


def k_expansions(
    curve: GeometricCurve, p: Sequence[int], q: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """(k0, k1) float columns for the slopes (p[i], q[i]), read off the curve's quartic.

    ``p`` and ``q`` are integer columns (lists or integer arrays) of coprime
    slopes within float range. k0 = |p + q a1|^2 / Im a1 and k1 = N(p, q) /
    |p + q a1|^4 are read at (p, q) / (|p| + |q|), so no power overflows. The
    first slope that is not coprime or above ``MAX_CONE_NORM`` is refused,
    with the guard's exception type and the exact integers of the slope.
    """
    if len(p) != len(q):
        raise TubeError(f"{len(p)} numerators against {len(q)} denominators")
    # a list may mix int64- and uint64-sized ints, which np.gcd cannot pair
    p, q = (c if isinstance(c, np.ndarray) else np.array(c, dtype=object) for c in (p, q))
    x, y = np.array(p, dtype=float), np.array(q, dtype=float)
    c, a1 = _k_quartic(curve), curve.a1
    shared = np.gcd(p, q) != 1
    bad = shared | (np.abs(x) > MAX_CONE_NORM - np.abs(y))
    if bad.any():
        i = int(np.argmax(bad))
        if shared[i]:
            raise SurgeryError(f"slope ({p[i]}, {q[i]}) is not coprime")
        # cone_jets' guard: the quartic reads no slope its jets would refuse
        reason = f"|p| + |q| above {MAX_CONE_NORM:.0e}, where the theta-jets underflow"
        raise JetError(f"slope ({p[i]}, {q[i]}): {reason}")
    s = np.abs(x) + np.abs(y)
    x /= s  # in place: each column of a 0.6 M-slope scan is 5 MiB
    y /= s
    d = (x + y * a1.real) ** 2 + (y * a1.imag) ** 2
    n = sum(c[k] * x**k * y ** (4 - k) for k in range(5))
    return s * s * d / a1.imag, n / (d * d)


def k_expansion_closed_form(curve: GeometricCurve, slope2: Slope) -> KExpansion:
    """(k0, k1) of the tube quantities' jets on the curve: |p + q a1|^2 / Im a1, N / |p + q a1|^4.

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


def k1_range_check(samples: int = 1_000_000) -> tuple[float, float]:
    """Extrema of the unfilled curve's k1 = N(x, 1) / D(x)^2 over slopes x = p/q.

    N is ``_k_quartic`` of the built-in polynomial's curve and D(x) = |x + a1|^2.
    The interior extrema sit at the real roots of the derivative's numerator
    N'D - 2ND' (D has no real root), and the x -> +-infinity limit is N's
    leading coefficient. The real part of a complex root is just another
    point of the line, so taking every root's real part cannot widen the
    range. A dense grid on [-1e4, 1e4], graded toward the origin where the
    structure lives, joins those values as a cross-check.
    """
    # only this check needs numpy.polynomial; importing it here keeps it
    # out of the package import
    from numpy.polynomial import Polynomial

    if samples < 1000:
        raise TubeError("need at least 1000 samples")
    curve = expand_from_polynomial(whitehead_a_polynomial(), -1, -1, UNFILLED_A1).symmetrized()
    num = Polynomial(_k_quartic(curve))
    den = Polynomial((abs(curve.a1) ** 2, 2.0 * curve.a1.real, 1.0))

    def k1(x: np.ndarray) -> np.ndarray:
        return num(x) / den(x) ** 2

    half = samples // 2
    core = np.linspace(-50.0, 50.0, samples - half)
    tails = np.concatenate(
        [
            -np.logspace(math.log10(50.0), 4.0, half // 2),
            np.logspace(math.log10(50.0), 4.0, half - half // 2),
        ]
    )
    critical = (num.deriv() * den - 2.0 * num * den.deriv()).roots().real
    vals = np.concatenate([k1(core), k1(tails), k1(critical), num.coef[-1:]])
    return float(vals.min()), float(vals.max())
