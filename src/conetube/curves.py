"""Local branches l(m) of an eigenvalue variety at a corner of {+-1}^2.

A geometric curve is the germ of the second-cusp eigenvalue relation at
``(m0, l0)``, stored through order 3 with factorial normalization:

    l(m) = l0 + a1 (m - m0) + (a2/2) (m - m0)^2 + (a3/6) (m - m0)^3 + ...

Coefficients come from one of two sources. ``expand_from_polynomial``
solves a bivariate polynomial relation for the branch as a power series,
one Newton step per order, both on a smooth branch and where two smooth
branches cross (a hint picks the slope). ``expand_from_samples``
differentiates a numerically parametrized curve by complex-stencil finite
differences with Richardson extrapolation, then reverts and composes jets
to eliminate the parameter. It asks its sampler once for the whole
stencil: an array of parameters in, the arrays (m, l) out.

The involution (l, m) -> (1/l, 1/m) preserves the varieties of interest;
``GeometricCurve.involution_defect`` measures the induced constraint
a2 = -m0 a1 + l0 a1^2.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
from typing import Callable, Mapping, Sequence

import numpy as np

from .config import TOLERANCES
from .jets import Jet, compose, constant, reversion, solve_series, variable

_SLOPE_HINT_RELATIVE = 0.5
# the largest degree in l or m that a polynomial may carry: its expansion
# takes binomials of that size, which outgrow a float or the time of a call
_MAX_DEGREE = 1000
UNFILLED_A1 = 2 + 2j  # a1 of the unfilled cusp: picks its branch of the A-polynomial


class CurveError(ValueError):
    pass


@dataclasses.dataclass(frozen=True)
class GeometricCurve:
    m0: int
    l0: int
    a1: complex
    a2: complex
    a3: complex

    def __post_init__(self) -> None:
        if self.m0 not in (-1, 1) or self.l0 not in (-1, 1):
            raise CurveError("base point must lie in {+-1}^2")

    def series_jet(self, var: str = "dm") -> Jet:
        """l - l0 as a jet in m - m0 (order 3)."""
        return Jet([0.0, self.a1, self.a2 / 2.0, self.a3 / 6.0], var)

    def involution_defect(self) -> complex:
        return self.a2 + self.m0 * self.a1 - self.l0 * self.a1 * self.a1

    def symmetrized(self) -> "GeometricCurve":
        """Snap a2 onto the involution constraint; a1, a3 unchanged."""
        a2 = -self.m0 * self.a1 + self.l0 * self.a1 * self.a1
        return dataclasses.replace(self, a2=a2)


def _json_degree(value) -> int:
    """A degree read from JSON: an integral number, not a boolean."""
    integral = isinstance(value, (int, float)) and float(value).is_integer()
    if isinstance(value, bool) or not integral:
        raise ValueError(f"degree {value!r} is not an integer")
    return int(value)


def _json_number(value) -> float:
    """A coefficient part read from JSON: anything ``float`` reads but a boolean."""
    if isinstance(value, bool):
        raise ValueError(f"coefficient {value!r} is not a number")
    return float(value)


@dataclasses.dataclass(frozen=True)
class BivariatePolynomial:
    """Polynomial in (l, m) as a sorted tuple of (deg_l, deg_m, coeff)."""

    terms: tuple[tuple[int, int, complex], ...]

    @classmethod
    def from_terms(cls, table: Mapping[tuple[int, int], complex]) -> "BivariatePolynomial":
        items = []
        for (dl, dm), c in table.items():
            dl, dm, c = int(dl), int(dm), complex(c)
            if dl < 0 or dm < 0:
                raise CurveError(f"negative degree in the term l^{dl} m^{dm}")
            if dl > _MAX_DEGREE or dm > _MAX_DEGREE:
                raise CurveError(f"degree above {_MAX_DEGREE} in the term l^{dl} m^{dm}")
            if not cmath.isfinite(c):
                raise CurveError(f"non-finite coefficient {c!r} of l^{dl} m^{dm}")
            if c != 0:
                items.append((dl, dm, c))
        if not items:
            raise CurveError("empty polynomial")
        return cls(tuple(sorted(items, key=lambda t: (t[0], t[1]))))

    def evaluate(self, l: complex, m: complex) -> complex:
        return sum(c * l**dl * m**dm for dl, dm, c in self.terms)

    def evaluate_jets(self, l_jet: Jet, m_jet: Jet) -> Jet:
        max_dl = max(dl for dl, _, _ in self.terms)
        max_dm = max(dm for _, dm, _ in self.terms)
        lp = [constant(1.0, l_jet.order, l_jet.var)]
        for _ in range(max_dl):
            lp.append(lp[-1] * l_jet)
        mp = [constant(1.0, m_jet.order, m_jet.var)]
        for _ in range(max_dm):
            mp.append(mp[-1] * m_jet)
        acc = constant(0.0, min(l_jet.order, m_jet.order), l_jet.var)
        for dl, dm, c in self.terms:
            acc = acc + c * lp[dl] * mp[dm]
        return acc

    def coefficient_scale(self) -> float:
        return max(abs(c) for _, _, c in self.terms)

    def check_root(self, l0: complex, m0: complex) -> None:
        value = self.evaluate(l0, m0)
        if abs(value) > TOLERANCES.base_point * max(1.0, self.coefficient_scale()):
            raise CurveError(f"declared root ({l0!r}, {m0!r}) gives value {value!r}")

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"dl": dl, "dm": dm, "re": c.real, "im": c.imag}
                for dl, dm, c in self.terms
            ]
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "BivariatePolynomial":
        try:
            table: dict[tuple[int, int], complex] = {}
            for term in data["terms"]:
                key = (_json_degree(term["dl"]), _json_degree(term["dm"]))
                table[key] = table.get(key, 0.0) + complex(
                    _json_number(term["re"]), _json_number(term.get("im", 0.0))
                )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CurveError(f"bad polynomial JSON: {exc}") from exc
        return cls.from_terms(table)

    @classmethod
    def from_json(cls, text: str) -> "BivariatePolynomial":
        try:
            data = json.loads(text)
        except ValueError as exc:  # a decode error, or an integer of too many digits
            raise CurveError(f"bad polynomial JSON: {exc}") from exc
        return cls.from_json_dict(data)


def whitehead_a_polynomial() -> BivariatePolynomial:
    """Eigenvalue relation of the second cusp with the first cusp unfilled.

    The degree-(2, 4) factor vanishing at (-1, -1) with the two geometric
    branches; the full trace relation is this times (l - 1).
    """
    return BivariatePolynomial.from_terms(
        {
            (1, 0): -1.0,
            (2, 0): 1.0,
            (1, 2): 4.0,
            (0, 4): 1.0,
            (1, 4): -1.0,
        }
    )


def figure_eight_a_polynomial() -> BivariatePolynomial:
    """The figure-eight knot relation used as the crossing-branch fixture."""
    return BivariatePolynomial.from_terms(
        {
            (1, 8): 1.0,
            (1, 6): -1.0,
            (2, 4): -1.0,
            (1, 4): -2.0,
            (0, 4): -1.0,
            (1, 2): -1.0,
            (1, 0): 1.0,
        }
    )


def _branch_series(
    poly: BivariatePolynomial, m0: int, l0: int, a1_hint: complex, order: int
) -> Jet:
    """l - l0 through (m - m0)**order on the branch of poly(l, m) = 0 with slope near the hint.

    With d = m - m0 and l = l0 + d c(d), G(c, d) = poly(l, m) / d**k is a
    series in d, with k = 1 on a smooth branch and k = 2 where two smooth
    branches cross (both first partials vanish). G(c, 0) has degree k in c,
    its root near the hint is the slope c(0), and ``solve_series`` continues
    it to c(d).
    """
    poly.check_root(l0, m0)
    scale, hint = poly.coefficient_scale(), complex(a1_hint)

    def taylor(i: int, j: int) -> complex:  # of x^i y^j in poly(l0 + x, m0 + y)
        return sum(
            c * math.comb(dl, i) * math.comb(dm, j) * l0 ** (dl - i) * m0 ** (dm - j)
            for dl, dm, c in poly.terms
            if dl >= i and dm >= j
        )

    def near(c: complex) -> bool:
        return abs(c - hint) <= _SLOPE_HINT_RELATIVE * max(abs(hint), abs(c))

    jacobian = taylor(1, 0)
    if abs(jacobian) >= TOLERANCES.crossing * scale:
        k, c0 = 1, -taylor(0, 1) / jacobian
        if not near(c0):
            raise CurveError(f"branch slope {c0!r} is not near hint {hint!r}")
    else:
        if abs(taylor(0, 1)) > TOLERANCES.crossing * scale:
            raise CurveError("no smooth branch: dA/dm does not vanish with dA/dl")
        qa, qb, qc = taylor(2, 0), taylor(1, 1), taylor(0, 2)  # G(c, 0) = qa c^2 + qb c + qc
        if abs(qa) < TOLERANCES.degenerate_order * scale:
            raise CurveError("branch slope defect: quadratic slope equation degenerate")
        disc = (qb * qb - 4.0 * qa * qc) ** 0.5
        roots = [(-qb + disc) / (2.0 * qa), (-qb - disc) / (2.0 * qa)]
        matches = [r for r in roots if near(r)]
        if not matches:
            raise CurveError(f"no branch slope near hint {hint!r}: roots {roots!r}")
        gap = abs(roots[0] - roots[1])
        if len(matches) == 2 and gap > TOLERANCES.double_root * max(1.0, abs(roots[0])):
            raise CurveError(f"hint {hint!r} is ambiguous between {roots!r}")
        k, c0 = 2, matches[0]
        jacobian = 2.0 * qa * c0 + qb
        if abs(jacobian) < TOLERANCES.degenerate_order * scale:
            raise CurveError("branch continuation degenerate at order 2")

    # poly(l, m) through d**(order + k - 1) gives G through d**(order - 1)
    m = m0 + variable("dm", order + k - 1)

    def along(c: Jet) -> Jet:
        return poly.evaluate_jets(l0 + Jet(np.pad(c.coeffs, (1, k - 1)), "dm"), m)

    start = constant(c0, order - 1, "dm")
    c = solve_series(lambda x: Jet(along(x).coeffs[k:], "dm"), start, jacobian)
    residual, bound = along(c).coeffs.tolist(), TOLERANCES.curve_residual * max(1.0, scale)
    if max(map(abs, residual)) > bound:
        raise CurveError(f"branch residual {residual!r} exceeds {bound}")
    return c.shift_up(1)


def expand_from_polynomial(
    poly: BivariatePolynomial, m0: int, l0: int, a1_hint: complex
) -> GeometricCurve:
    """Order-3 branch of poly(l, m) = 0 at (l0, m0) with slope near the hint.

    The series comes from ``_branch_series``, at a crossing point of two
    smooth branches as on one smooth branch.
    """
    _, b1, b2, b3 = _branch_series(poly, m0, l0, a1_hint, 3).coeffs.tolist()
    return GeometricCurve(m0=m0, l0=l0, a1=b1, a2=2.0 * b2, a3=6.0 * b3)


DEFAULT_STENCIL_RADII = (1e-2, 5e-3, 2.5e-3)
# the stencil's directions i^k, and the DFT weights i^(-jk) of its order-j terms
_RING = np.array([1, 1j, -1, -1j])
_DFT = _RING[(-np.outer(np.arange(4), np.arange(1, 4))) % 4]


def _stencil_coefficients(ring: np.ndarray, base: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Order-3 Taylor coefficients from 4-point circular stencils, one per radius.

    ``ring[..., r, k]`` is the value at ``radii[r] i^k`` and ``base[...]`` at 0;
    the result holds ``[..., r, j]``, the coefficient of s^j.
    """
    out = np.empty(ring.shape, dtype=complex)
    out[..., 0] = base[..., None]
    out[..., 1:] = ((ring - base[..., None, None])[..., None] * _DFT).sum(axis=-2)
    out[..., 1:] /= 4.0 * radii[:, None] ** np.arange(1, 4)
    return out


def _richardson(coeffs: np.ndarray) -> np.ndarray:
    """Extrapolate the h^4 stencil alias away along the radius axis; require stable estimates."""
    extrap = (16.0 * coeffs[..., 1:, :] - coeffs[..., :-1, :]) / 15.0
    gaps = np.abs(extrap[..., -1, :] - extrap[..., -2, :]).max(axis=-1)
    for gap in gaps.ravel():
        if gap > TOLERANCES.sample_agreement:
            raise CurveError(f"stencil estimates disagree by {gap:.3e}")
    return extrap[..., -1, :]


def expand_from_samples(
    sampler: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    m0: int,
    l0: int,
    radii: Sequence[float] = DEFAULT_STENCIL_RADII,
) -> GeometricCurve:
    """Differentiate a parametrized curve s -> (m(s), l(s)) at s = 0.

    The sampler is called once, with the whole stencil as an ndarray of s:
    0 first, then the four points h i^k of each radius h. It returns the
    arrays (m(s), l(s)), and must satisfy sampler(0) = (m0, l0); the
    parametrization is arbitrary (any smooth s with dm/ds != 0).
    """
    if len(radii) < 3:
        raise CurveError("need at least three stencil radii")
    radii = np.asarray(radii, dtype=float)
    m, l = sampler(np.concatenate(([0j], np.outer(radii, _RING).ravel())))
    base_m, base_l = complex(m[0]), complex(l[0])
    tol = TOLERANCES.base_point
    if abs(base_m - m0) > tol or abs(base_l - l0) > tol:
        raise CurveError(f"sampler(0) = {(base_m, base_l)!r} is not the base point")
    ring = np.stack((m[1:], l[1:])).reshape(2, radii.size, 4)
    m_coeffs, l_coeffs = _richardson(_stencil_coefficients(ring, np.array([m0, l0]), radii))
    if abs(m_coeffs[1]) < TOLERANCES.stationary_parameter:
        raise CurveError("degenerate linear term: dm/ds vanishes at 0")
    s_of_dm = reversion(Jet(m_coeffs, "s") - m0).rename("dm")
    _, b1, b2, b3 = compose(Jet(l_coeffs, "s") - l0, s_of_dm).coeffs.tolist()
    return GeometricCurve(m0=m0, l0=l0, a1=b1, a2=2.0 * b2, a3=6.0 * b3)
