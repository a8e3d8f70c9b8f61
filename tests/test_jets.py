from __future__ import annotations

import cmath
import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conetube import (
    BranchError,
    Jet,
    JetError,
    compose,
    constant,
    jet_log,
    jet_sqrt,
    real_modulus_jet,
    reversion,
    variable,
)
from conetube.jets import solve_series
from tests.oracles import continue_log, continue_sqrt, jet_exp, log_along_path, sqrt_along_path

finite_complex = st.builds(
    complex,
    st.floats(-5, 5, allow_nan=False, allow_infinity=False),
    st.floats(-5, 5, allow_nan=False, allow_infinity=False),
)
jets = st.builds(
    lambda cs: Jet(tuple(cs)),
    st.lists(finite_complex, min_size=1, max_size=5),
)


def test_constructors():
    t = variable()
    assert t.order == 4
    assert t[0] == 0 and t[1] == 1 and t[4] == 0
    c = constant(3 - 1j, 2)
    assert c.coeffs.tolist() == [3 - 1j, 0, 0]


def test_product_example():
    t = variable(order=2)
    f = (1 + t) * (1 - t)
    assert f.coeffs.tolist() == [1, 0, -1]


def test_min_order_truncation():
    a = Jet((1, 2, 3))
    b = Jet((1, 1))
    assert (a * b).order == 1
    assert (a + b).order == 1


def test_var_mismatch_rejected():
    a = variable("s")
    b = variable("t")
    with pytest.raises(JetError):
        _ = a + b


def test_division_by_zero_constant():
    with pytest.raises(JetError):
        _ = Jet((1, 1)) / Jet((0, 1))


def test_derivative_and_evaluate():
    f = Jet((2, -1, 4, 0.5))
    assert f.derivative(2) == 8
    x = 0.3 + 0.1j
    direct = sum(c * x**k for k, c in enumerate(f))
    assert abs(f.evaluate(x) - direct) < 1e-15


@given(f=jets, g=jets)
@settings(max_examples=60, deadline=None)
def test_add_sub_roundtrip(f, g):
    h = (f + g) - g
    n = min(f.order, g.order)
    for k in range(n + 1):
        assert abs(h[k] - f[k]) < 1e-9


# Dividing by g amplifies rounding by up to 1 + max|g_k|/|g0| per order, so a
# fixed tolerance fails for divisors with a small constant term. The constant
# was fixed from 200,000 random pairs (half with |g0| in [1e-3, 1.1e-2]), whose
# worst error was 2.75 eps (1 + max|g_k|/|g0|)^n max(1, max|f|).
ROUNDTRIP_C = 16.0


@given(f=jets, g=jets)
@example(f=Jet([1j, 1j, 0, 0, 0]), g=Jet([0.0015753j, 1j, 0, 0, 0]))
@settings(max_examples=60, deadline=None)
def test_mul_div_roundtrip(f, g):
    if abs(g[0]) < 1e-3:
        g = g + 1.0
    h = (f * g) / g
    n = min(f.order, g.order)
    growth = (1.0 + max(abs(c) for c in g) / abs(g[0])) ** n
    bound = ROUNDTRIP_C * np.finfo(float).eps * growth * max(1.0, max(abs(c) for c in f))
    for k in range(n + 1):
        assert abs(h[k] - f[k]) <= bound


def test_exp_matches_taylor():
    t = variable()
    f = jet_exp(t)
    for k in range(5):
        assert abs(f[k] - 1.0 / math.factorial(k)) < 1e-15


def test_exp_log_roundtrip():
    f = Jet((0.5 + 0.2j, 1.0, -0.3, 0.1j, 0.05))
    g = jet_log(f, cmath.log(f[0]))
    h = jet_exp(g)
    for k in range(5):
        assert abs(h[k] - f[k]) < 1e-13


def test_log_branch_is_explicit():
    f = Jet((1.0, 2.0))
    assert jet_log(f, 0.0)[0] == 0.0
    shifted = jet_log(f, 2j * math.pi)
    assert abs(shifted[0] - 2j * math.pi) < 1e-15
    # 1.0 is not a logarithm of 1
    with pytest.raises(BranchError):
        jet_log(f, 1.0)


def test_sqrt_both_branches():
    f = Jet((4.0, 1.0, 0.25))
    plus = jet_sqrt(f, 2.0)
    minus = jet_sqrt(f, -2.0)
    for k in range(3):
        assert abs(plus[k] + minus[k]) < 1e-15
    sq = plus * plus
    for k in range(3):
        assert abs(sq[k] - f[k]) < 1e-14
    with pytest.raises(BranchError):
        jet_sqrt(f, 1.9)


def test_sqrt_binomial_series():
    t = variable()
    f = jet_sqrt(1 + t, 1.0)
    expected = [1.0, 0.5, -0.125, 0.0625, -0.0390625]
    for k in range(5):
        assert abs(f[k] - expected[k]) < 1e-15


def test_compose():
    t = variable()
    outer = jet_exp(t)
    inner = 2 * t + t * t
    f = compose(outer, inner)
    # exp(2t + t^2) = 1 + 2t + 3t^2 + (10/3) t^3 + (19/6) t^4
    expected = [1.0, 2.0, 3.0, 10.0 / 3.0, 19.0 / 6.0]
    for k in range(5):
        assert abs(f[k] - expected[k]) < 1e-13


def test_compose_requires_zero_constant():
    t = variable()
    with pytest.raises(JetError):
        compose(jet_exp(t), t + 1)


def test_reversion_roundtrip():
    t = variable()
    f = t + t**2 - 0.5 * t**3 + 0.1 * t**4
    g = reversion(f)
    h = compose(g, f)
    assert abs(h[1] - 1) < 1e-12
    for k in (0, 2, 3, 4):
        assert abs(h[k]) < 1e-12


def test_reversion_requires_unit_valuation():
    t = variable()
    with pytest.raises(JetError):
        reversion(t * t)
    with pytest.raises(JetError):
        reversion(t + 1)


def test_shift_down_validates_leading_zeros():
    t = variable()
    f = t * t * (3 + t)
    g = f.shift_down(2)
    assert g[0] == 3
    with pytest.raises(JetError):
        (f + 1e-3).shift_down(2)


def test_shift_up_pads():
    f = Jet((1, 2), var="t")
    g = f.shift_up(2)
    assert g.coeffs.tolist() == [0, 0, 1, 2]
    # t is known through t^4, so t * t^4 is known through t^8
    assert variable().shift_up(4).coeffs.tolist() == [0, 0, 0, 0, 0, 1, 0, 0, 0]


def test_solve_series_gives_the_square_root_through_order_8():
    # X^2 = 1 + t from the simple root X(0) = 1, where d(X^2)/dX = 2
    rhs = 1 + variable(order=8)
    root = solve_series(lambda x: x * x - rhs, constant(1.0, 8), 2.0)
    assert np.abs(root.coeffs - jet_sqrt(rhs, 1.0).coeffs).max() < 1e-15


def test_real_modulus_of_constant():
    f = constant(2 + 2j, 4)
    g = real_modulus_jet(f, 0)
    assert abs(g[0] - 2 * math.sqrt(2)) < 1e-15
    assert all(abs(g[k]) < 1e-15 for k in range(1, 5))


def test_real_modulus_with_leading_power():
    t = variable()
    f = (-0.125 + 0j) * t * t
    g = real_modulus_jet(f, 2)
    assert abs(g[2] - 0.125) < 1e-15
    assert abs(g[0]) < 1e-15 and abs(g[1]) < 1e-15


def test_real_modulus_nontrivial_series():
    # |(-1/8) t^2 (1 + (0.3 + 0.4i) t)| has |1 + w t| factor sqrt((1+.3t)^2 + (.4t)^2)
    t = variable()
    f = (-0.125 + 0j) * t * t * (1 + (0.3 + 0.4j) * t)
    g = real_modulus_jet(f, 2)
    h = 1e-6
    num = abs(f.evaluate(h))
    assert abs(g.evaluate(h) - num) < 1e-20


def test_continue_sqrt_small_step():
    w = 1.1 + 0.2j
    s = continue_sqrt(w, 1.0, 1.0)
    assert abs(s * s - w) < 1e-15
    assert abs(s - 1.0) < 0.2


def test_continue_sqrt_rejects_big_step():
    with pytest.raises(BranchError):
        continue_sqrt(-1.0 + 0j, 1.0, 1.0)


def test_continue_sqrt_steps_every_row():
    rng = np.random.default_rng(5)
    anchor_value = rng.uniform(-2, 2, size=(40, 2)).view(np.complex128)[:, 0]
    anchor_arg = anchor_value**2
    arg = anchor_arg * (1 + rng.uniform(-0.3, 0.3, size=(40, 2)).view(np.complex128)[:, 0])
    rows = continue_sqrt(arg, anchor_arg, anchor_value)
    for i in range(arg.size):
        one = continue_sqrt(complex(arg[i]), complex(anchor_arg[i]), complex(anchor_value[i]))
        assert abs(rows[i] - one) <= 1e-15 * abs(one)
    # a scalar anchor acts as the same anchor on every row
    assert np.array_equal(continue_sqrt(arg[:3] / arg[:3], 1.0, -1.0), [-1.0, -1.0, -1.0])


@pytest.mark.parametrize("bad", [-1.0, 0.0])
@pytest.mark.parametrize("row", [0, 2])
def test_continue_sqrt_refuses_a_bad_row(bad, row):
    arg = np.array([1.1, 0.9, 1.0 + 0.2j])
    arg[row] = bad
    with pytest.raises(BranchError) as batch_exc:
        continue_sqrt(arg, 1.0, 1.0)
    assert batch_exc.value.row == row
    assert str(batch_exc.value).startswith(f"row {row}: ")
    with pytest.raises(BranchError) as one_exc:
        continue_sqrt(complex(bad), 1.0, 1.0)
    assert str(one_exc.value) == batch_exc.value.reason


def test_continue_log_steps_every_row():
    rng = np.random.default_rng(6)
    anchor_arg = rng.uniform(-2, 2, size=(40, 2)).view(np.complex128)[:, 0]
    anchor_value = np.log(anchor_arg) + 2j * math.pi * rng.integers(-2, 3, size=40)
    arg = anchor_arg * (1 + rng.uniform(-0.3, 0.3, size=(40, 2)).view(np.complex128)[:, 0])
    rows = continue_log(arg, anchor_arg, anchor_value)
    for i in range(arg.size):
        one = continue_log(complex(arg[i]), complex(anchor_arg[i]), complex(anchor_value[i]))
        assert abs(rows[i] - one) <= 1e-15 * abs(one)


@pytest.mark.parametrize("bad", [-1.0, 0.0])
@pytest.mark.parametrize("row", [0, 2])
def test_continue_log_refuses_a_bad_row(bad, row):
    arg = np.array([1.1, 0.9, 1.0 + 0.2j])
    arg[row] = bad
    with pytest.raises(BranchError) as batch_exc:
        continue_log(arg, 1.0, 0.0)
    assert batch_exc.value.row == row
    assert str(batch_exc.value).startswith(f"row {row}: ")
    with pytest.raises(BranchError) as one_exc:
        continue_log(complex(bad), 1.0, 0.0)
    assert str(one_exc.value) == batch_exc.value.reason


def test_continue_log_tracks_branch():
    w = cmath.exp(2j * math.pi + 0.1)
    val = continue_log(w, w, cmath.log(w) + 2j * math.pi)
    assert abs(val.imag - 2 * math.pi) < 1e-12


def test_sqrt_monodromy():
    # a loop around 0 flips the sign
    path = [1, 1j, -1, -1j, 1]
    end = sqrt_along_path([complex(p) for p in path], 1.0)
    assert abs(end + 1.0) < 1e-12


def test_log_monodromy():
    path = [1, 1j, -1, -1j, 1]
    end = log_along_path([complex(p) for p in path], 0.0)
    assert abs(end - 2j * math.pi) < 1e-12


def test_path_through_branch_point_rejected():
    with pytest.raises(BranchError, match="branch point"):
        sqrt_along_path([1 + 0j, -1 + 0j], 1.0)


def test_path_start_value_validated():
    with pytest.raises(BranchError):
        sqrt_along_path([4 + 0j, 4.1 + 0j], 1.9)


# ---------------------------------------------------------------------------
# batches: every operator and helper acts row by row

coefficient = st.floats(-2, 2, allow_nan=False, allow_infinity=False)


@st.composite
def batch_pairs(draw, min_order=0):
    """Two (rows, order+1) complex coefficient arrays: 1 to 4 rows of one order up to 8."""
    rows = draw(st.integers(1, 4))
    m = draw(st.integers(min_order + 1, 9))
    n = 2 * rows * m
    values = np.array(draw(st.lists(coefficient, min_size=2 * n, max_size=2 * n)))
    flat = values[0::2] + 1j * values[1::2]
    return flat[: n // 2].reshape(rows, m), flat[n // 2 :].reshape(rows, m)


def _away_from_zero(c: np.ndarray) -> np.ndarray:
    """Shift each row's constant term to modulus at least 2: well conditioned."""
    out = c.copy()
    out[:, 0] += 3.0 * np.where(out[:, 0].real >= 0, 1.0, -1.0)
    return out


def _vanishing(c: np.ndarray) -> np.ndarray:
    """Zero constant term and a linear term of modulus at least 2."""
    out = _away_from_zero(c)
    out[:, 1] = out[:, 0]
    out[:, 0] = 0.0
    return out


def _assert_rows(batch, per_row) -> None:
    batch = np.asarray(getattr(batch, "coeffs", batch))
    for i, one in enumerate(per_row):
        one = np.asarray(getattr(one, "coeffs", one))
        assert batch[i].shape == one.shape
        assert np.abs(batch[i] - one).max(initial=0.0) <= 1e-14 * max(1.0, np.abs(one).max(initial=0.0))


OPERATIONS = {
    "add": (lambda a, b: a + b, _away_from_zero),
    "sub": (lambda a, b: a - b, _away_from_zero),
    "rsub": (lambda a, b: 2.5 - a, _away_from_zero),
    "neg": (lambda a, b: -a, _away_from_zero),
    "mul": (lambda a, b: a * b, _away_from_zero),
    "scale": (lambda a, b: (1.5 - 0.5j) * a, _away_from_zero),
    "div": (lambda a, b: a / b, _away_from_zero),
    "rdiv": (lambda a, b: 2.0 / b, _away_from_zero),
    "square": (lambda a, b: a**2, _away_from_zero),
    "cube": (lambda a, b: a**3, _away_from_zero),
    "inverse": (lambda a, b: b**-1, _away_from_zero),
    "exp": (lambda a, b: jet_exp(a), _away_from_zero),
    "log": (lambda a, b: jet_log(b, np.log(b[0])), _away_from_zero),
    "sqrt": (lambda a, b: jet_sqrt(b, np.sqrt(b[0])), _away_from_zero),
    "modulus": (lambda a, b: real_modulus_jet(b, 0), _away_from_zero),
    "shift_up": (lambda a, b: a.shift_up(1), _away_from_zero),
    "shift_down": (lambda a, b: (a * variable(order=a.order)).shift_down(1), _away_from_zero),
    "compose": (lambda a, b: compose(a, b), _vanishing),
    "reversion": (lambda a, b: reversion(b), _vanishing),
    "evaluate": (lambda a, b: a.evaluate(0.3 - 0.2j), _away_from_zero),
    "derivative": (lambda a, b: a.derivative(a.order), _away_from_zero),
}


@pytest.mark.parametrize("name", sorted(OPERATIONS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_batch_equals_rows(name, data):
    op, shape_second = OPERATIONS[name]
    min_order = 1 if name in ("shift_down", "compose", "reversion") else 0
    a, b = data.draw(batch_pairs(min_order))
    b = shape_second(b)
    batch = op(Jet(a), Jet(b))
    _assert_rows(batch, [op(Jet(a[i]), Jet(b[i])) for i in range(len(a))])


def _product_loop(a, b):
    """Truncated product by the coefficient double loop."""
    n = min(len(a), len(b))
    out = [0j] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += a[i] * b[j]
    return out


def _quotient_loop(a, b):
    """Truncated quotient by forward substitution."""
    n = min(len(a), len(b))
    out = [0j] * n
    for k in range(n):
        acc = a[k]
        for j in range(k):
            acc -= out[j] * b[k - j]
        out[k] = acc / b[0]
    return out


@given(pair=batch_pairs())
@settings(max_examples=60, deadline=None)
def test_mul_div_match_the_coefficient_loops(pair):
    a, b = pair
    b = _away_from_zero(b)
    eps = np.finfo(float).eps
    for f, g in zip(a.tolist(), b.tolist()):
        product = (Jet(f) * Jet(g)).coeffs
        # the matrix form sums the same products in another order
        scale = sum(map(abs, f)) * sum(map(abs, g))
        assert np.abs(product - _product_loop(f, g)).max() <= 4 * len(f) * eps * scale
        quotient = (Jet(f) / Jet(g)).coeffs
        reference = np.array(_quotient_loop(f, g))
        assert np.abs(quotient - reference).max() <= 1e-13 * max(1.0, np.abs(reference).max())


def test_batch_with_unbatched_and_per_row_constants():
    a = np.array([[1.0, 2.0, 3.0], [0.5j, -1.0, 0.25]])
    t = variable(order=2)
    _assert_rows(Jet(a) * (1 + t), [Jet(r) * (1 + t) for r in a])
    scale = np.array([2.0, -1j])
    _assert_rows(Jet(a) * scale, [Jet(r) * s for r, s in zip(a, scale)])
    _assert_rows(Jet(a) + scale, [Jet(r) + s for r, s in zip(a, scale)])
    _assert_rows(constant(scale, 2), [constant(s, 2) for s in scale])
    _assert_rows(Jet(a)[1], [Jet(r)[1] for r in a])


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_ndarray_on_the_left_gives_a_batched_jet(op):
    jet = Jet(np.array([[1.0, 2.0, 3.0], [0.5j, -1.0, 0.25]]))
    reflected = getattr(Jet, f"__r{op.__name__}__")
    left = np.array([2.0, -1j])
    out = op(left, jet)
    assert isinstance(out, Jet)
    assert np.array_equal(out.coeffs, reflected(jet, left).coeffs)
    _assert_rows(out, [op(complex(x), Jet(r)) for x, r in zip(left, jet.coeffs)])
    # a numpy scalar on the left still acts as one constant for every row
    scalar = op(np.float64(2.0), jet)
    assert isinstance(scalar, Jet)
    assert np.array_equal(scalar.coeffs, reflected(jet, 2.0).coeffs)


TAILS = [[1.0, 0.25], [-0.5j, 2.0], [0.5, 1.0]]
GUARDS = {
    # name: (constant term of the good rows, bad row, operation, error type)
    "division": (1.0, [0.0, 1.0, 1.0], lambda f: 1.0 / f, JetError),
    "division by a number": (1.0, [0.0, 1.0, 1.0], lambda f: f / f[0], JetError),
    "sqrt branch": (4.0, [9.0, 1.0, 0.0], lambda f: jet_sqrt(f, 2.0), BranchError),
    "log branch": (1.0, [2.0, 1.0, 0.0], lambda f: jet_log(f, 0.0), BranchError),
    "log zero": (1.0, [0.0, 1.0, 0.0], lambda f: jet_log(f, 0.0), JetError),
    "shift_down": (0.0, [1e-3, 1.0, 0.0], lambda f: f.shift_down(1), JetError),
    "modulus": (1.0, [0.0, 1.0, 0.0], lambda f: real_modulus_jet(f, 0), JetError),
    "compose": (0.0, [1.0, 1.0, 0.0], lambda f: compose(variable(order=2), f), JetError),
    "reversion": (0.0, [0.0, 0.0, 1.0], reversion, JetError),
    "finite": (1.0, [1.0, math.nan, 0.0], lambda f: f, JetError),
}


@pytest.mark.parametrize("name", sorted(GUARDS))
@pytest.mark.parametrize("row", [0, 2])
def test_one_bad_row_refuses_the_batch(name, row):
    c0, bad, op, error = GUARDS[name]
    good = [[c0] + tail for tail in TAILS]
    op(Jet(np.array(good, dtype=complex)))
    rows = good.copy()
    rows[row] = bad
    with pytest.raises(error) as batch_exc:
        op(Jet(np.array(rows, dtype=complex)))
    assert batch_exc.value.row == row
    assert str(batch_exc.value).startswith(f"row {row}: ")
    # the row alone raises the same type, with the same reason and no row
    with pytest.raises(error) as one_exc:
        op(Jet(np.array(bad, dtype=complex)))
    assert type(one_exc.value) is type(batch_exc.value)
    assert one_exc.value.row is None
    assert str(one_exc.value) == batch_exc.value.reason
