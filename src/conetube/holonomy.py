"""Two-parameter family of SL(2, C) representations of the exterior group.

The group is generated by ``alpha, beta, gamma`` subject to

    alpha gamma = gamma beta
    gamma alpha beta alpha^-1 = alpha beta^-1 alpha beta alpha^-1 gamma.

The family is parametrized by ``x`` (the eigenvalue of alpha, which is the
second-cusp meridian) and ``y`` (minus the commutator trace defect of the
alpha/gamma pair). One matrix entry involves

    z = sqrt( x^2 (1 - x^2 - y) / w ),
    w = (x^2 y - x^2 + 1) (x^2 y + (x^2 - 1)^2),

whose branch is pinned at the complete structure ``(x, y) = (-1, 2i)``
where ``w = -4`` and ``z = -(1+i)/2``, and continued from there:
``continue_representation`` continues z from a previous representation's
``(z_squared, z)``, so a walk hands each representation to the next.

Peripheral elements: the second-cusp meridian/longitude pair is
``(alpha, gamma alpha^-1 gamma^-1 alpha beta^-1 alpha)``, both upper
triangular; the first-cusp pair is ``(gamma, alpha beta^-1 alpha^-1 beta)``.

Batches. Every function is array-native, with one code path: ``x``, ``y``
and ``z`` may be numbers or arrays with a leading batch axis (one point
per row), and they broadcast by numpy's rules. Matrices are stacks of
shape ``(..., 2, 2)``, so one point gives plain 2x2 matrices, and residuals
and traces come back with the batch shape. Every guard (finiteness,
``x = 0``, ``w = 0``, ``z^2`` against its radicand, the determinants, each
``continue_sqrt`` step of the z branch) runs on every row with the
threshold of one point. One failing row refuses the batch with the same
exception type as one point, and the message starts ``row i:``; the error
carries ``row`` and ``reason``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .config import TOLERANCES
from .jets import BranchError, _refuse, continue_sqrt

BASE_X = complex(-1.0, 0.0)
BASE_Y = complex(0.0, 2.0)
BASE_Z = complex(-0.5, -0.5)
# radicand of z at the base
BASE_Z_SQUARED = complex(0.0, 0.5)


class HolonomyError(ValueError):
    pass


def _mat(a, b, c, d) -> np.ndarray:
    """Stack of matrices [[a, b], [c, d]], shape (..., 2, 2)."""
    m = np.empty(np.broadcast(a, b, c, d).shape + (2, 2), dtype=complex)
    m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = a, b, c, d
    return m


def _product(*factors: np.ndarray) -> np.ndarray:
    """Product of stacks of 2x2 matrices, taken left to right, row by row.

    Written out entry by entry: numpy's matmul makes one small product per
    matrix of a stack, several times slower than this on 2x2 blocks.
    """
    p = factors[0]
    for q in factors[1:]:
        p = _mat(
            p[..., 0, 0] * q[..., 0, 0] + p[..., 0, 1] * q[..., 1, 0],
            p[..., 0, 0] * q[..., 0, 1] + p[..., 0, 1] * q[..., 1, 1],
            p[..., 1, 0] * q[..., 0, 0] + p[..., 1, 1] * q[..., 1, 0],
            p[..., 1, 0] * q[..., 0, 1] + p[..., 1, 1] * q[..., 1, 1],
        )
    return p


def _det(m: np.ndarray) -> np.ndarray:
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def sl2_inverse(m: np.ndarray) -> np.ndarray:
    det = _det(m)
    _refuse(
        abs(det - 1.0) > TOLERANCES.unit_determinant,
        HolonomyError,
        lambda i: f"matrix determinant {complex(det[i])!r} is not 1",
    )
    return _mat(m[..., 1, 1], -m[..., 0, 1], -m[..., 1, 0], m[..., 0, 0])


def _z_radicand(x, y) -> tuple:
    """Return (w, z^2) at the parameters (x, y), refusing a non-finite x or y first."""
    for e in np.broadcast_arrays(x, y):
        _refuse(~np.isfinite(e), ValueError, lambda i: f"non-finite value {complex(e[i])!r}")
    x2 = x * x
    w = (x2 * y - x2 + 1.0) * (x2 * y + (x2 - 1.0) ** 2)
    _refuse(w == 0, HolonomyError, lambda i: "family is singular here (w = 0)")
    return w, x2 * (1.0 - x2 - y) / w


@dataclasses.dataclass(frozen=True)
class Representation:
    """Matrices at (x, y) on the branch z of z_squared; arrays over a batch of points."""

    x: complex
    y: complex
    z: complex
    z_squared: complex
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray


def _build_representation(x, y, z_value, radicand: tuple) -> Representation:
    """Assemble matrices at (x, y) with z_value, a chosen branch of radicand = (w, z^2)."""
    x, y, z, w, z2 = np.broadcast_arrays(
        *(np.asarray(e, dtype=complex) for e in (x, y, z_value, *radicand))
    )
    _refuse(~np.isfinite(z), ValueError, lambda i: f"non-finite value {complex(z[i])!r}")
    _refuse(x == 0, HolonomyError, lambda i: "x = 0 is outside the family")
    _refuse(
        abs(z * z - z2) > TOLERANCES.branch_match * np.maximum(1.0, abs(z2)),
        HolonomyError,
        lambda i: f"z value {complex(z[i])!r} does not square to the radicand {complex(z2[i])!r}",
    )
    x2 = x * x
    alpha = _mat(x, 1.0, 0.0, 1.0 / x)
    beta = _mat(x, 0.0, y, 1.0 / x)
    g11 = -x * (x2 * y * y + x2 * (x2 - 3.0) * y - (x2 - 1.0) ** 2) / (z * w)
    gamma = _mat(g11, z, z * y, z * (1.0 - x2) / x)
    det = _det(gamma)
    _refuse(
        abs(det - 1.0) > TOLERANCES.unit_determinant,
        HolonomyError,
        lambda i: f"gamma determinant {complex(det[i])!r} is not 1",
    )
    return Representation(x, y, z, z2, alpha, beta, gamma)


def continue_representation(x, y, previous: Representation | None = None) -> Representation:
    """The representation at (x, y), its z continued from ``previous`` (the base if None).

    Each row of a batch continues from its own row of ``previous``; the base
    broadcasts over any batch.
    """
    w, z2 = _z_radicand(x, y)
    anchor = (BASE_Z_SQUARED, BASE_Z) if previous is None else (previous.z_squared, previous.z)
    try:
        z = continue_sqrt(np.asarray(z2), *anchor)
    except BranchError as exc:
        lost = HolonomyError(f"z branch lost: {exc}")
        lost.row, lost.reason = exc.row, f"z branch lost: {exc.reason}"
        raise lost from exc
    return _build_representation(x, y, z, (w, z2))


def base_representation() -> Representation:
    return _build_representation(BASE_X, BASE_Y, BASE_Z, _z_radicand(BASE_X, BASE_Y))


def _max_norm(m: np.ndarray) -> np.ndarray:
    """Largest |entry| of each matrix of a stack."""
    return np.abs(m).max(axis=(-2, -1))


def relation_residuals(rep: Representation) -> tuple:
    """Max-norm residuals of the two defining group relations."""
    a, b, g = rep.alpha, rep.beta, rep.gamma
    ai = sl2_inverse(a)
    bi = sl2_inverse(b)
    r1 = _product(a, g) - _product(g, b)
    r2 = _product(g, a, b, ai) - _product(a, bi, a, b, ai, g)
    return _max_norm(r1), _max_norm(r2)


@dataclasses.dataclass(frozen=True)
class PeripheralMatrices:
    meridian1: np.ndarray
    longitude1: np.ndarray
    meridian2: np.ndarray
    longitude2: np.ndarray


def peripheral_matrices(rep: Representation) -> PeripheralMatrices:
    a, b, g = rep.alpha, rep.beta, rep.gamma
    ai = sl2_inverse(a)
    bi = sl2_inverse(b)
    gi = sl2_inverse(g)
    return PeripheralMatrices(
        meridian1=g,
        longitude1=_product(a, bi, ai, b),
        meridian2=a,
        longitude2=_product(g, ai, gi, a, bi, a),
    )


def l2_eigenvalue(x, y):
    """Second-cusp longitude eigenvalue paired with meridian eigenvalue x."""
    x2 = x * x
    den = -1.0 + x2 + y
    _refuse(den == 0, HolonomyError, lambda i: "longitude eigenvalue is singular here")
    return (-1.0 + x2 - x2 * y) / den


def y_from_l2(x, l2):
    """Invert l2_eigenvalue in y at fixed x."""
    den = l2 + x * x
    _refuse(den == 0, HolonomyError, lambda i: "(x, l2) lies on the exceptional locus")
    return (x * x - 1.0) * (1.0 - l2) / den


def commutator_trace_minus2(rep: Representation):
    """tr of the alpha/gamma commutator minus 2; equals -y on the family."""
    a, g = rep.alpha, rep.gamma
    comm = _product(a, g, sl2_inverse(a), sl2_inverse(g))
    return comm[..., 0, 0] + comm[..., 1, 1] - 2.0


def trace_identity_m1(m2, l2):
    """(m1 + 1/m1)^2 expressed through the second-cusp eigenvalues.

    The printed form (1 + l2)^2 (m2^4 - l2) / (l2 (l2 + m2^2)(m2^2 - 1)),
    evaluated in a and b as ``trace_identity_l1`` explains.
    """
    a, b = (m2 - 1.0) * (m2 + 1.0), 1.0 + l2
    den = (b - 1.0) * (a + b) * a
    _refuse(den == 0, HolonomyError, lambda i: "trace identity singular at this point")
    return b * b * (a * a + 2.0 * a + 2.0 - b) / den


def trace_identity_l1(m2, l2):
    """l1 + 1/l1 expressed through the second-cusp eigenvalues.

    The printed form divides l2^2 (1 + m2^4) + l2 (-1 + 2 m2^2 + 2 m2^4 +
    2 m2^6 - m2^8) + m2^4 + m2^8 by m2^2 (l2 + m2^2)^2. That numerator sums
    O(1) terms to a value that vanishes to second order at the complete
    structure m2 = l2 = -1, so near it the sum keeps only about
    eps / |m2 + 1|^2 of relative accuracy. The same rational function in
    a = (m2 - 1)(m2 + 1) and b = 1 + l2, which vanish there and are exact
    to rounding, has only small terms.
    """
    a, b = (m2 - 1.0) * (m2 + 1.0), 1.0 + l2
    den = (a + 1.0) * (a + b) ** 2
    _refuse(den == 0, HolonomyError, lambda i: "trace identity singular at this point")
    a2, b2 = a * a, b * b
    num = (
        2.0 * b2 + 4.0 * a * b + 6.0 * a2 + 6.0 * a2 * a + 2.0 * a * b2 + a2 * b2
        - 2.0 * a2 * a * b + 2.0 * a2 * a2 - a2 * a2 * b
    )
    return num / den


def cusp_relation_residuals(rep: Representation) -> tuple:
    """Commutation defect of each cusp's meridian/longitude pair."""
    per = peripheral_matrices(rep)
    r1 = _product(per.meridian1, per.longitude1) - _product(per.longitude1, per.meridian1)
    r2 = _product(per.meridian2, per.longitude2) - _product(per.longitude2, per.meridian2)
    return _max_norm(r1), _max_norm(r2)
