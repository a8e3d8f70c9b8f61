"""Local branches l(m) of an eigenvalue variety at a corner of {+-1}^2.

A geometric curve is the germ of the second-cusp eigenvalue relation at
``(m0, l0)``, stored through order 3 with factorial normalization:

    l(m) = l0 + a1 (m - m0) + (a2/2) (m - m0)^2 + (a3/6) (m - m0)^3 + ...

Coefficients come from one of two sources. ``expand_from_polynomial``
differentiates a bivariate polynomial relation implicitly, handling both a
smooth branch and the crossing of two smooth branches (where both first
partials vanish and a hint picks the slope). ``expand_from_samples``
differentiates a numerically parametrized curve by complex-stencil finite
differences with Richardson extrapolation, then reverts and composes jets
to eliminate the parameter.

The involution (l, m) -> (1/l, 1/m) preserves the varieties of interest;
``GeometricCurve.involution_defect`` measures the induced constraint
a2 = -m0 a1 + l0 a1^2.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Callable, Mapping, Sequence

import numpy as np

from .config import TOLERANCES
from .jets import Jet, compose, constant, reversion, variable

_SLOPE_HINT_RELATIVE = 0.5


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


@dataclasses.dataclass(frozen=True)
class BivariatePolynomial:
    """Polynomial in (l, m) as a sorted tuple of (deg_l, deg_m, coeff)."""

    terms: tuple[tuple[int, int, complex], ...]

    @classmethod
    def from_terms(cls, table: Mapping[tuple[int, int], complex]) -> "BivariatePolynomial":
        items = []
        for (dl, dm), c in table.items():
            c = complex(c)
            if c != 0:
                items.append((int(dl), int(dm), c))
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
                key = (int(term["dl"]), int(term["dm"]))
                table[key] = table.get(key, 0.0) + complex(
                    float(term["re"]), float(term.get("im", 0.0))
                )
        except (KeyError, TypeError) as exc:
            raise CurveError(f"bad polynomial JSON: {exc}") from exc
        return cls.from_terms(table)

    @classmethod
    def from_json(cls, text: str) -> "BivariatePolynomial":
        return cls.from_json_dict(json.loads(text))


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


def _branch_coefficients(
    poly: BivariatePolynomial, m0: int, l0: int, c1: complex, c2: complex, c3: complex
) -> list[complex]:
    """Coefficients of A(l(m), m) in dm through order 4."""
    d = variable("dm", 4)
    m_jet = m0 + d
    l_jet = l0 + c1 * d + c2 * d**2 + c3 * d**3
    return poly.evaluate_jets(l_jet, m_jet).coeffs.tolist()


def expand_from_polynomial(
    poly: BivariatePolynomial, m0: int, l0: int, a1_hint: complex
) -> GeometricCurve:
    """Order-3 branch of poly(l, m) = 0 at (l0, m0) with slope near the hint.

    Implicit differentiation by jet probing: each unknown coefficient enters
    the first not-yet-satisfied residual order linearly (through a crossing
    point the orders shift up by one and the slope equation is quadratic).
    """
    poly.check_root(l0, m0)
    scale = poly.coefficient_scale()
    a1_hint = complex(a1_hint)

    # residual order 1 in the slope: E + D*c1 with D = dA/dl, E scaled dA/dm
    e0 = _branch_coefficients(poly, m0, l0, 0.0, 0.0, 0.0)[1]
    e1 = _branch_coefficients(poly, m0, l0, 1.0, 0.0, 0.0)[1]
    dl_coeff = e1 - e0
    crossing = abs(dl_coeff) < TOLERANCES.crossing * scale

    if not crossing:
        c1 = -e0 / dl_coeff
    else:
        if abs(e0) > TOLERANCES.crossing * scale:
            raise CurveError("no smooth branch: dA/dm does not vanish with dA/dl")
        # both partials vanish: order-2 residual is quadratic in the slope
        f0 = _branch_coefficients(poly, m0, l0, 0.0, 0.0, 0.0)[2]
        fp = _branch_coefficients(poly, m0, l0, 1.0, 0.0, 0.0)[2]
        fm = _branch_coefficients(poly, m0, l0, -1.0, 0.0, 0.0)[2]
        qa = (fp + fm) / 2.0 - f0
        qb = (fp - fm) / 2.0
        if abs(qa) < TOLERANCES.degenerate_order * scale:
            raise CurveError("branch slope defect: quadratic slope equation degenerate")
        disc = (qb * qb - 4.0 * qa * f0) ** 0.5
        roots = [(-qb + disc) / (2.0 * qa), (-qb - disc) / (2.0 * qa)]
        matches = [
            r
            for r in roots
            if abs(r - a1_hint) <= _SLOPE_HINT_RELATIVE * max(abs(a1_hint), abs(r))
        ]
        if not matches:
            raise CurveError(f"no branch slope near hint {a1_hint!r}: roots {roots!r}")
        if len(matches) == 2 and abs(roots[0] - roots[1]) > TOLERANCES.double_root * max(
            1.0, abs(roots[0])
        ):
            raise CurveError(f"hint {a1_hint!r} is ambiguous between {roots!r}")
        c1 = matches[0]

    if abs(c1 - a1_hint) > _SLOPE_HINT_RELATIVE * max(abs(a1_hint), abs(c1)):
        raise CurveError(f"branch slope {c1!r} is not near hint {a1_hint!r}")

    # remaining coefficients are linear in the next residual orders
    k2 = 3 if crossing else 2
    g0 = _branch_coefficients(poly, m0, l0, c1, 0.0, 0.0)[k2]
    g1 = _branch_coefficients(poly, m0, l0, c1, 1.0, 0.0)[k2]
    if abs(g1 - g0) < TOLERANCES.degenerate_order * scale:
        raise CurveError("branch continuation degenerate at order 2")
    c2 = -g0 / (g1 - g0)

    k3 = k2 + 1
    h0 = _branch_coefficients(poly, m0, l0, c1, c2, 0.0)[k3]
    h1 = _branch_coefficients(poly, m0, l0, c1, c2, 1.0)[k3]
    if abs(h1 - h0) < TOLERANCES.degenerate_order * scale:
        raise CurveError("branch continuation degenerate at order 3")
    c3 = -h0 / (h1 - h0)

    residual = _branch_coefficients(poly, m0, l0, c1, c2, c3)
    bound = TOLERANCES.curve_residual * max(1.0, scale)
    if max(abs(r) for r in residual[:4]) > bound:
        raise CurveError(f"branch residual {residual!r} exceeds {bound}")

    return GeometricCurve(m0=m0, l0=l0, a1=c1, a2=2.0 * c2, a3=6.0 * c3)


DEFAULT_STENCIL_RADII = (1e-2, 5e-3, 2.5e-3)


def _stencil_jet(
    values: Callable[[complex], complex], base: complex, h: float, var: str
) -> Jet:
    """Order-3 jet from a 4-point circular stencil of radius h."""
    ring = [values(h * 1j**k) for k in range(4)]
    coeffs = [base]
    for j in range(1, 4):
        acc = 0j
        for k in range(4):
            acc += (ring[k] - base) * 1j ** ((-j * k) % 4)
        coeffs.append(acc / (4.0 * h**j))
    return Jet(tuple(coeffs), var)


def _richardson_jets(
    values: Callable[[complex], complex],
    base: complex,
    radii: Sequence[float],
    var: str,
) -> Jet:
    """Extrapolate the h^4 stencil alias away; require stable estimates."""
    if len(radii) < 3:
        raise CurveError("need at least three stencil radii")
    jets = [_stencil_jet(values, base, h, var) for h in radii]
    extrap = []
    for a, b in zip(jets, jets[1:]):
        extrap.append(Jet((16.0 * b.coeffs - a.coeffs) / 15.0, var))
    last, prev = extrap[-1], extrap[-2]
    gap = float(np.abs(last.coeffs - prev.coeffs).max())
    if gap > TOLERANCES.sample_agreement:
        raise CurveError(f"stencil estimates disagree by {gap:.3e}")
    return last


def expand_from_samples(
    sampler: Callable[[complex], tuple[complex, complex]],
    m0: int,
    l0: int,
    radii: Sequence[float] = DEFAULT_STENCIL_RADII,
) -> GeometricCurve:
    """Differentiate a parametrized curve s -> (m(s), l(s)) at s = 0.

    The sampler must be reentrant and satisfy sampler(0) = (m0, l0); the
    parametrization is arbitrary (any smooth s with dm/ds != 0).
    """
    base_m, base_l = sampler(0.0)
    tol = TOLERANCES.base_point
    if abs(base_m - m0) > tol or abs(base_l - l0) > tol:
        raise CurveError(f"sampler(0) = {(base_m, base_l)!r} is not the base point")
    cache: dict[complex, tuple[complex, complex]] = {}

    def cached(s: complex) -> tuple[complex, complex]:
        if s not in cache:
            cache[s] = sampler(s)
        return cache[s]

    m_jet = _richardson_jets(lambda s: cached(s)[0], m0, radii, "s")
    l_jet = _richardson_jets(lambda s: cached(s)[1], l0, radii, "s")
    if abs(m_jet[1]) < TOLERANCES.stationary_parameter:
        raise CurveError("degenerate linear term: dm/ds vanishes at 0")
    s_of_dm = reversion(m_jet - m0).rename("dm")
    _, b1, b2, b3 = compose(l_jet - l0, s_of_dm).coeffs.tolist()
    return GeometricCurve(m0=m0, l0=l0, a1=b1, a2=2.0 * b2, a3=6.0 * b3)
