"""k0 and k1's closed form against sympy: the log-series cubic and the unfilled reference."""

from __future__ import annotations

import types

import numpy as np
import sympy as sp

from conetube import GeometricCurve, whitehead_k_reference
from conetube.tube import _k1_form

A1, A2, A3, U = sp.symbols("a1 a2 a3 u")


def _log_series_cubic() -> sp.Expr:
    """c of log(-l) = a1 u + b u^2 + c u^3 + O(u^4), u = log(-m), on the curve at (-1, -1).

    The curve is l + 1 = a1 dm + a2 dm^2 / 2 + a3 dm^3 / 6 with dm = m + 1,
    and -m = e^u, so log(-l) = log(1 - (l + 1)) as a series in u.
    """
    dm = 1 - sp.exp(U)
    dl = A1 * dm + A2 * dm**2 / 2 + A3 * dm**3 / 6
    series = sp.series(sp.log(1 - dl), U, 0, 4).removeO()
    return sp.expand(series).coeff(U, 3)


def test_the_cubic_is_the_log_series_coefficient():
    c = _log_series_cubic()
    rng = np.random.default_rng(7)
    for a1, a2, a3 in rng.normal(size=(5, 3, 2)) @ np.array([1, 1j]):
        curve = GeometricCurve(m0=-1, l0=-1, a1=complex(a1), a2=complex(a2), a3=complex(a3))
        exact = complex(c.subs({A1: a1, A2: a2, A3: a3}))
        assert abs(_k1_form(curve)[1] - exact) <= 1e-13 * max(1.0, abs(exact))
    # on the involution a2 = a1 - a1^2 the general form reduces to its short form
    short = (A3 - A1**3 + 3 * A1**2 - 2 * A1) / 6
    assert sp.expand(c.subs(A2, A1 - A1**2) - short) == 0


def test_the_unfilled_closed_form_is_the_reference():
    # a1 = 2 + 2i and c = 2i/3 make k1 = -1/8 + Re(w^4) / (24 |w|^4)
    p, q = sp.symbols("p q", real=True)
    w = p + q * (2 + 2 * sp.I)
    modulus_sq = sp.expand(w * sp.conjugate(w))
    closed = sp.Rational(-1, 8) + sp.re(sp.expand(w**4)) / (24 * modulus_sq**2)
    # the reference's float literals (12.0) as the rationals they are
    reference = whitehead_k_reference(types.SimpleNamespace(p=p, q=q)).k1
    reference = sp.nsimplify(reference, rational=True)
    assert sp.cancel(closed - reference) == 0
