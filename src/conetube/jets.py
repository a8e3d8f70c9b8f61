"""Truncated complex power series (jets) with explicit branch control.

A ``Jet`` holds the coefficients ``c0 + c1*t + ... + ck*t**k`` of a function
of one variable, truncated at any order ``k``. Coefficients above the
truncation order are unknown rather than zero, so arithmetic truncates every
result to the shortest operand, the same convention as any power-series
calculus.

Coefficients are stored as one complex128 array of shape ``(..., k+1)``: the
last axis runs over the powers of the variable and any leading axes index a
batch of series. An unbatched jet has shape ``(k+1,)``; a batch of N series
has shape ``(N, k+1)``. Every operator and helper broadcasts over the
leading axes by numpy's rules, so a batch combines row by row with another
batch, an unbatched jet acts as the same series in every row, and a plain
number or an array of the batch's shape acts as a constant series (one
constant per row). Branch values passed to ``jet_sqrt`` and ``jet_log``
broadcast the same way.

What distinguishes this implementation from a generic power-series class
is that ``sqrt`` and ``log`` never choose a branch. The caller passes the
value at the constant term (a number whose square, or exponential, matches
``c0``) and the series is built on that sheet.

Every guard (a branch value that does not match ``c0``, division by a series
with zero constant term, a declared leading power whose coefficients do not
vanish, a stray imaginary part in ``real_modulus_jet``) runs on every row,
with the same threshold as for one series. One failing row refuses the whole
batch: the ``JetError`` names the first failing row in its message and in
its ``row`` attribute. Every constructed jet is checked to be finite.

Leading powers of the variable are moved explicitly with ``shift_down`` and
``shift_up``; ``real_modulus_jet`` expands ``|f(t)|`` for real ``t`` given
the declared leading power of ``f``; ``solve_series`` solves F(X) = 0 order
by order.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .config import TOLERANCES


class JetError(ValueError):
    """A jet guard refused its input.

    ``row`` is the batch index of the first failing row (an int for a batch
    with one leading axis, a tuple for more), or None when the jet is
    unbatched; ``reason`` is the message without the row.
    """

    def __init__(self, reason: str, row: int | tuple[int, ...] | None = None) -> None:
        super().__init__(reason if row is None else f"row {row}: {reason}")
        self.reason = reason
        self.row = row


class BranchError(JetError):
    pass


def _refuse(bad: np.ndarray, error: type[ValueError], reason: Callable[[tuple], str]) -> None:
    """Raise ``error`` for the first row where the boolean ``bad`` holds.

    ``bad`` has the batch shape; ``reason(i)`` words the refusal for the
    batch index ``i`` (``()`` for an unbatched input, which raises the bare
    reason). A batch refusal of any error type says ``row i: ...`` and
    carries ``row`` and ``reason`` attributes, as ``JetError`` does. A
    Python ``False``, what a guard on numbers gives, returns at once.
    """
    if bad is False or not np.count_nonzero(bad):
        return
    if np.ndim(bad) == 0:
        raise error(reason(()))
    idx = tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), bad.shape))
    row, text = (idx[0] if len(idx) == 1 else idx), reason(idx)
    exc = error(f"row {row}: {text}")
    exc.row, exc.reason = row, text
    raise exc


@functools.cache
def _convolution(m: int) -> np.ndarray:
    """0/1 matrix taking the flat outer product of two m-term series to their product."""
    out = np.zeros((m, m, m), dtype=complex)
    for i in range(m):
        for j in range(m - i):
            out[i, j, i + j] = 1.0
    return out.reshape(m * m, m)


@functools.cache
def _toeplitz_index(m: int) -> np.ndarray:
    """Index of c[k - j] at (k, j) of the lower triangular Toeplitz matrix; 0 above it."""
    diff = np.subtract.outer(np.arange(m), np.arange(m))
    return np.where(diff >= 0, diff, 0)


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated product of coefficient arrays with the same last axis."""
    m = a.shape[-1]
    outer = a[..., :, None] * b[..., None, :]
    return outer.reshape(outer.shape[:-2] + (m * m,)) @ _convolution(m)


def _div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients h with b h = a (truncated); b's constant terms are nonzero.

    With u = b / b0 - 1 the system is h = a / b0 - T(u) h, where T(u) is
    strictly lower triangular Toeplitz; m - 1 sweeps of that fixed point make
    every coefficient exact (the k-th is final after k sweeps).
    """
    m = a.shape[-1]
    b0 = b[..., :1]
    u = b / b0
    u[..., 0] = 0.0
    lower = u[..., _toeplitz_index(m)]
    first = (a / b0)[..., None]
    h = first
    for _ in range(m - 1):
        h = first - lower @ h
    return h[..., 0]


def _constant_coeffs(value, m: int) -> np.ndarray:
    """Coefficients of the constant series ``value`` (a number or batch array)."""
    value = np.asarray(value, dtype=complex)
    out = np.zeros(value.shape + (m,), dtype=complex)
    out[..., 0] = value
    return out


class Jet:
    """Truncated power series in one named variable, or a batch of them.

    ``coeffs`` has shape ``(..., order+1)`` (see the module docstring). It
    is not copied from an array argument, and jets are values: no operation
    writes into it.
    """

    __slots__ = ("coeffs", "var")
    # an ndarray on the left of an operator defers to the reflected method,
    # which takes it as one constant per row, instead of looping over it
    __array_ufunc__ = None

    def __init__(self, coeffs, var: str = "t") -> None:
        self.coeffs = np.asarray(coeffs, dtype=complex)
        self.var = var
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate shape and finiteness; runs once for every constructed jet."""
        c = self.coeffs
        if c.ndim == 0 or c.shape[-1] == 0:
            raise JetError("a jet needs at least its constant term")
        finite = np.isfinite(c)
        if not finite.all():
            _refuse(
                ~finite.all(axis=-1),
                JetError,
                lambda i: f"non-finite value in coefficients {c[i].tolist()!r}",
            )

    @property
    def order(self) -> int:
        return self.coeffs.shape[-1] - 1

    def __getitem__(self, k: int):
        """Coefficient k: a number for one series, an array over a batch."""
        return self.coeffs[..., k]

    def __iter__(self):
        return iter(np.moveaxis(self.coeffs, -1, 0))

    # derivative value f^(k)(0), not the series coefficient
    def derivative(self, k: int):
        return self.coeffs[..., k] * math.factorial(k)

    def evaluate(self, x):
        acc = 0j
        for k in range(self.order, -1, -1):
            acc = acc * x + self.coeffs[..., k]
        return acc

    def _pair(self, other) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients of self and other, truncated to their common order."""
        if isinstance(other, Jet):
            if self.var != other.var:
                raise JetError(f"mixed jet variables {self.var!r} and {other.var!r}")
            a, b = self.coeffs, other.coeffs
            if a.shape[-1] == b.shape[-1]:
                return a, b
            m = min(a.shape[-1], b.shape[-1])
            return a[..., :m], b[..., :m]
        return self.coeffs, _constant_coeffs(other, self.coeffs.shape[-1])

    def __add__(self, other) -> "Jet":
        a, b = self._pair(other)
        return Jet(a + b, self.var)

    __radd__ = __add__

    def __sub__(self, other) -> "Jet":
        a, b = self._pair(other)
        return Jet(a - b, self.var)

    def __rsub__(self, other) -> "Jet":
        a, b = self._pair(other)
        return Jet(b - a, self.var)

    def __neg__(self) -> "Jet":
        return Jet(-self.coeffs, self.var)

    def __mul__(self, other) -> "Jet":
        if isinstance(other, Jet):
            a, b = self._pair(other)
            return Jet(_mul(a, b), self.var)
        return Jet(self.coeffs * np.asarray(other, dtype=complex)[..., None], self.var)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            other = np.asarray(other, dtype=complex)
            _refuse(other == 0, JetError, lambda i: "division of a jet by zero")
            return self * (1.0 / other)
        a, b = self._pair(other)
        _refuse(
            b[..., 0] == 0,
            JetError,
            lambda i: "division by a jet with zero constant term; shift_down first",
        )
        return Jet(_div(a, b), self.var)

    def __rtruediv__(self, other) -> "Jet":
        return constant(other, self.order, self.var) / self

    def __pow__(self, n: int) -> "Jet":
        if not isinstance(n, int):
            raise JetError("only integer powers; use jet_sqrt/jet_log for fractional")
        if n < 0:
            return 1.0 / (self ** (-n))
        acc = None
        base = self
        while n:
            if n & 1:
                acc = base if acc is None else acc * base
            n >>= 1
            if n:
                base = base * base
        return constant(1.0, self.order, self.var) if acc is None else acc

    def shift_down(self, k: int) -> "Jet":
        """Divide by var**k; the first k coefficients must already vanish."""
        if k == 0:
            return self
        if k > self.order:
            raise JetError("shift_down exceeds jet order")
        c = self.coeffs
        # relative to the largest coefficient; an all-zero row passes
        loud = np.abs(c[..., :k]) > TOLERANCES.vanishing * np.abs(c).max(axis=-1, keepdims=True)

        def reason(i: tuple) -> str:
            lead = c[i][:k][loud[i]][0]
            return f"declared leading power {k} but coefficient {complex(lead)!r} does not vanish"

        _refuse(loud.any(axis=-1), JetError, reason)
        return Jet(c[..., k:], self.var)

    def shift_up(self, k: int) -> "Jet":
        """Multiply by var**k; the product is known through k more orders."""
        if k == 0:
            return self
        c = self.coeffs
        pad = np.zeros(c.shape[:-1] + (k,), dtype=complex)
        return Jet(np.concatenate([pad, c], axis=-1), self.var)

    def rename(self, var: str) -> "Jet":
        """Same coefficients as a series in another variable."""
        return Jet(self.coeffs, var)

    def conjugate_coefficients(self) -> "Jet":
        """Coefficient-wise conjugate: equals conj(f(t)) only for real t."""
        return Jet(self.coeffs.conj(), self.var)

    def real_part(self) -> "Jet":
        """Coefficient-wise real part: equals Re f(t) only for real t."""
        return Jet(self.coeffs.real.astype(complex), self.var)

    def imag_max(self):
        """Largest |imaginary part| of the coefficients, per row."""
        return np.abs(self.coeffs.imag).max(axis=-1)

    def __repr__(self) -> str:
        return f"Jet({self.coeffs.tolist()!r}, var={self.var!r})"


def constant(value, order: int = 4, var: str = "t") -> Jet:
    """The constant series ``value``; an array value gives one row per entry."""
    return Jet(_constant_coeffs(value, order + 1), var)


def variable(var: str = "t", order: int = 4) -> Jet:
    if order < 1:
        raise JetError("variable jet needs order >= 1")
    coeffs = np.zeros(order + 1, dtype=complex)
    coeffs[1] = 1.0
    return Jet(coeffs, var)


def jet_log(f: Jet, log_of_c0) -> Jet:
    """Series of log f on the sheet where log(c0) = log_of_c0 (per row)."""
    c = f.coeffs
    c0 = c[..., 0]
    log_of_c0 = np.asarray(log_of_c0, dtype=complex)
    _refuse(c0 == 0, JetError, lambda i: "log of a jet with zero constant term")
    miss = np.abs(np.exp(log_of_c0) - c0)
    _refuse(
        miss > TOLERANCES.branch_match * np.abs(c0),
        BranchError,
        lambda i: f"exp({complex(np.broadcast_to(log_of_c0, miss.shape)[i])!r}) does not "
        f"match constant term {complex(np.broadcast_to(c0, miss.shape)[i])!r}",
    )
    out = np.empty(miss.shape + c.shape[-1:], dtype=complex)
    out[..., 0] = log_of_c0
    for k in range(1, f.order + 1):
        # f g' = f' for g = log f: k c0 g_k = k c_k - sum_{j<k} j g_j c_{k-j}
        inner = (out[..., None, 1:k] * np.arange(1, k)) @ c[..., k - 1 : 0 : -1, None]
        out[..., k] = (c[..., k] - inner[..., 0, 0] / k) / c0
    return Jet(out, f.var)


def jet_sqrt(f: Jet, branch_of_c0) -> Jet:
    """Series of sqrt f on the sheet where sqrt(c0) = branch_of_c0 (per row)."""
    c = f.coeffs
    c0 = c[..., 0]
    s0 = np.asarray(branch_of_c0, dtype=complex)
    _refuse(s0 == 0, BranchError, lambda i: "branch value 0 is a branch point, not a branch")
    miss = np.abs(s0 * s0 - c0)
    _refuse(
        miss > TOLERANCES.branch_match * np.maximum(1.0, np.abs(c0)),
        BranchError,
        lambda i: f"square of branch {complex(np.broadcast_to(s0, miss.shape)[i])!r} does "
        f"not match constant term {complex(np.broadcast_to(c0, miss.shape)[i])!r}",
    )
    n = f.order
    out = np.empty(miss.shape + (n + 1,), dtype=complex)
    out[..., 0] = s0
    twice = 2.0 * s0
    if n >= 1:
        out[..., 1] = c[..., 1] / twice
    for k in range(2, n + 1):
        # c_k = sum_{j=0..k} out_j out_{k-j}, whose two end terms are 2 s0 out_k
        inner = out[..., None, 1:k] @ out[..., k - 1 : 0 : -1, None]
        out[..., k] = (c[..., k] - inner[..., 0, 0]) / twice
    return Jet(out, f.var)


def compose(outer: Jet, inner: Jet) -> Jet:
    """outer(inner(t)); inner must have zero constant term."""
    _refuse(
        inner.coeffs[..., 0] != 0,
        JetError,
        lambda i: "composition needs inner jet with zero constant term",
    )
    n = min(outer.order, inner.order)
    a, c = inner.coeffs[..., : n + 1], outer.coeffs
    # sum_k c_k inner^k, each power of the inner series built once
    acc = _constant_coeffs(c[..., 0], n + 1)
    power = a
    for k in range(1, n + 1):
        if k > 1:
            power = _mul(power, a)
        acc = acc + c[..., k, None] * power
    return Jet(acc, inner.var)


def reversion(f: Jet) -> Jet:
    """Inverse series of f with f(0)=0: reversion(f)(f(t)) = t."""
    c = f.coeffs
    _refuse(c[..., 0] != 0, JetError, lambda i: "reversion needs zero constant term")
    _refuse(c[..., 1] == 0, JetError, lambda i: "reversion needs a nonzero linear coefficient")
    n = f.order
    powers = [c]  # f^1 .. f^(n-1), each built once
    for _ in range(2, n):
        powers.append(_mul(powers[-1], c))
    out = np.zeros(c.shape, dtype=complex)
    out[..., 1] = 1.0 / c[..., 1]
    for k in range(2, n + 1):
        # the t^k coefficient of sum_j out[j] f^j vanishes; f^k contributes
        # out[k] c1^k and the lower powers the rest
        acc = sum(out[..., j] * powers[j - 1][..., k] for j in range(1, k))
        out[..., k] = -acc / c[..., 1] ** k
    return Jet(out, f.var)


def solve_series(residual: Callable[[Jet], Jet], start: Jet, jacobian) -> Jet:
    """The series X with residual(X) = 0 and the constant term of ``start``.

    That constant term is a simple root, ``jacobian`` is d residual / dX
    there, and ``residual`` keeps the order of its argument. Each Newton step
    with the Jacobian frozen fixes one more coefficient (Brent and Kung,
    J. ACM 25, 1978), so ``start.order`` steps make every coefficient exact.
    """
    x = start
    for _ in range(start.order):
        x = x - residual(x) / jacobian
    return x


def real_modulus_jet(f: Jet, leading_power: int) -> Jet:
    """Expand |f(t)| for real t, where f = t**leading_power * g with g(0) != 0.

    Returns the jet of |f| with the t**leading_power factor reattached. The
    order drops by ``leading_power`` during the factorization and the result
    is only as long as what remains known.
    """
    g = f.shift_down(leading_power)
    g0 = g.coeffs[..., 0]
    _refuse(
        g0 == 0,
        JetError,
        lambda i: f"leading power {leading_power} declared but next coefficient vanishes too",
    )
    gg = g * g.conjugate_coefficients()
    _refuse(
        gg.imag_max() > TOLERANCES.vanishing * np.maximum(1.0, np.abs(gg.coeffs[..., 0])),
        JetError,
        lambda i: "modulus square has stray imaginary part",
    )
    mod = jet_sqrt(gg.real_part(), np.abs(g0))
    return mod.shift_up(leading_power)

