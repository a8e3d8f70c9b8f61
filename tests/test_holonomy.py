from __future__ import annotations

import warnings

import numpy as np
import pytest

from conetube import (
    HolonomyError,
    Representation,
    base_representation,
    commutator_trace_minus2,
    continue_representation,
    cusp_relation_residuals,
    l2_eigenvalue,
    peripheral_matrices,
    relation_residuals,
    trace_identity_l1,
    trace_identity_m1,
    y_from_l2,
)
from conetube.holonomy import (
    BASE_X, BASE_Y, BASE_Z, _build_representation, _z_radicand, sl2_inverse,
)


def _walk_to(x: complex, y: complex, steps: int = 10):
    rep = None
    for k in range(1, steps + 1):
        s = k / steps
        rep = continue_representation(BASE_X + s * (x - BASE_X), BASE_Y + s * (y - BASE_Y), rep)
    return rep


def _random_points(n: int, radius: float, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        off = rng.uniform(-radius, radius, 4)
        yield BASE_X + complex(off[0], off[1]), BASE_Y + complex(off[2], off[3])


def test_base_matrices_exact():
    rep = base_representation()
    assert np.array_equal(rep.alpha, np.array([[-1, 1], [0, -1]], dtype=complex))
    assert np.array_equal(rep.beta, np.array([[-1, 0], [2j, -1]], dtype=complex))
    expected_gamma = np.array([[-2, -(1 + 1j) / 2], [1 - 1j, 0]], dtype=complex)
    assert np.max(np.abs(rep.gamma - expected_gamma)) < 1e-15


def test_base_relations():
    r1, r2 = relation_residuals(base_representation())
    assert r1 < 1e-14 and r2 < 1e-14


def test_base_z_value():
    w, z2 = _z_radicand(BASE_X, BASE_Y)
    assert abs(w + 4.0) < 1e-15
    assert abs(z2 - 0.5j) < 1e-15
    assert abs(BASE_Z**2 - z2) < 1e-15


def test_relations_hold_on_family():
    for x, y in _random_points(15, 0.12, seed=2):
        rep = _walk_to(x, y)
        r1, r2 = relation_residuals(rep)
        assert max(r1, r2) < 1e-12
        for m in (rep.alpha, rep.beta, rep.gamma):
            assert abs(np.linalg.det(m) - 1.0) < 1e-12


def test_wrong_z_branch_rejected():
    radicand = _z_radicand(BASE_X, BASE_Y)
    with pytest.raises(HolonomyError):
        _build_representation(BASE_X, BASE_Y, 1.1 * BASE_Z, radicand)
    # the other sqrt branch is a valid value for the radicand
    _build_representation(BASE_X, BASE_Y, -BASE_Z, radicand)


def test_second_longitude_upper_triangular():
    for x, y in _random_points(8, 0.1, seed=5):
        rep = _walk_to(x, y)
        per = peripheral_matrices(rep)
        assert abs(per.longitude2[1, 0]) < 1e-11
        assert abs(per.meridian2[1, 0]) < 1e-15
        l2 = l2_eigenvalue(x, y)
        assert abs(per.longitude2[0, 0] - l2) < 1e-11
        # paired diagonal entries multiply to det = 1
        assert abs(per.longitude2[0, 0] * per.longitude2[1, 1] - 1) < 1e-11


def test_y_roundtrip():
    for x, y in _random_points(10, 0.15, seed=8):
        l2 = l2_eigenvalue(x, y)
        assert abs(y_from_l2(x, l2) - y) < 1e-11


def test_commutator_trace_identity():
    for x, y in _random_points(10, 0.12, seed=9):
        rep = _walk_to(x, y)
        assert abs(commutator_trace_minus2(rep) + y) < 1e-12


def test_trace_identities_match_matrices():
    # both identities are singular at the base itself: stay off base
    for x, y in _random_points(8, 0.12, seed=13):
        rep = _walk_to(x, y)
        per = peripheral_matrices(rep)
        m2 = x
        l2 = l2_eigenvalue(x, y)
        lhs_m = np.trace(per.meridian1) ** 2
        assert abs(lhs_m - trace_identity_m1(m2, l2)) < 1e-10
        lhs_l = np.trace(per.longitude1)
        assert abs(lhs_l - trace_identity_l1(m2, l2)) < 1e-10


def test_cusp_relation_residuals_small():
    for x, y in _random_points(6, 0.1, seed=17):
        rep = _walk_to(x, y)
        r1, r2 = cusp_relation_residuals(rep)
        assert max(r1, r2) < 1e-10


def test_peripheral_pairs_commute():
    for x, y in _random_points(5, 0.1, seed=21):
        rep = _walk_to(x, y)
        per = peripheral_matrices(rep)
        c1 = per.meridian1 @ per.longitude1 - per.longitude1 @ per.meridian1
        c2 = per.meridian2 @ per.longitude2 - per.longitude2 @ per.meridian2
        assert np.max(np.abs(c1)) < 1e-11
        assert np.max(np.abs(c2)) < 1e-11


def test_sl2_inverse():
    m = np.array([[2.0, 1.0], [3.0, 2.0]], dtype=complex)
    assert np.max(np.abs(m @ sl2_inverse(m) - np.eye(2))) < 1e-15
    with pytest.raises(HolonomyError):
        sl2_inverse(np.array([[2.0, 0.0], [0.0, 2.0]], dtype=complex))


def _printed_m1(m2, l2):
    """The m1 identity as printed, for a reference evaluation in mpmath."""
    m2sq = m2 * m2
    return (1 + l2) ** 2 * (m2sq * m2sq - l2) / (l2 * (l2 + m2sq) * (m2sq - 1))


def _printed_l1(m2, l2):
    """The l1 identity as printed, for a reference evaluation in mpmath."""
    m2sq = m2 * m2
    m4 = m2sq * m2sq
    num = (
        l2 * l2 * (1 + m4)
        + l2 * (-1 + 2 * m2sq + 2 * m4 + 2 * m4 * m2sq - m4 * m4)
        + m4
        + m4 * m4
    )
    return num / (m2sq * (l2 + m2sq) ** 2)


# the worst point of `verify --points 200 --seed 1500881322` before the
# identities were rewritten: the printed l1 form, evaluated in doubles, is
# 8.5e-7 off its 50-digit value there
NEAR_BASE = (-1.0000095868622734 + 1.4261465496613182e-05j, -1.0000477446458167 + 9.453003708495187e-06j)


def test_trace_identities_match_printed_forms_to_50_digits():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    rng = np.random.default_rng(23)
    # the cusp eigenvalues of the verify box stay within about 0.2 of -1
    offsets = rng.uniform(-0.2, 0.2, size=(200, 4)).view(np.complex128)
    points = [NEAR_BASE] + [(-1 + dm, -1 + dl) for dm, dl in offsets]
    m2, l2 = np.array(points).T
    for identity, printed in ((trace_identity_m1, _printed_m1), (trace_identity_l1, _printed_l1)):
        ref = np.array([complex(printed(mpmath.mpc(a), mpmath.mpc(b))) for a, b in points])
        tol = 1e-14 * np.maximum(1.0, np.abs(ref))
        assert np.all(np.abs(identity(m2, l2) - ref) <= tol)
        assert np.all(np.abs([identity(a, b) for a, b in points] - ref) <= tol)


def test_stacked_representations_equal_rows():
    points = list(_random_points(100, 0.12, seed=3))
    x, y = np.array(points).T
    rep = _walk_to(x, y, steps=8)
    r1, r2 = relation_residuals(rep)
    comm = commutator_trace_minus2(rep)
    c1, c2 = cusp_relation_residuals(rep)
    assert rep.gamma.shape == (100, 2, 2)
    for i, (xi, yi) in enumerate(points):
        one = _walk_to(xi, yi, steps=8)
        for name in ("alpha", "beta", "gamma"):
            assert np.abs(getattr(rep, name)[i] - getattr(one, name)).max() <= 1e-14
        # the stacked residuals are the residuals of each row's matrices
        row = Representation(
            rep.x[i], rep.y[i], rep.z[i], rep.z_squared[i], rep.alpha[i], rep.beta[i], rep.gamma[i]
        )
        assert (r1[i], r2[i]) == relation_residuals(row)
        assert comm[i] == commutator_trace_minus2(row)
        assert (c1[i], c2[i]) == cusp_relation_residuals(row)
        assert abs(comm[i] - commutator_trace_minus2(one)) <= 1e-14
    assert max(r1.max(), r2.max()) < 1e-12
    assert np.abs(comm + y).max() < 1e-12


def _build(x, y, z):
    return _build_representation(x, y, z, _z_radicand(x, y))


BAD_ROWS = {
    # name: (operation on (x, y, z), bad point, error type); good rows
    # are the base point
    "w = 0": (lambda x, y, z: _z_radicand(x, y), (2.0, 0.75, BASE_Z), HolonomyError),
    "x = 0": (_build, (0.0, BASE_Y, BASE_Z), HolonomyError),
    "z value": (_build, (BASE_X, BASE_Y, 1.1 * BASE_Z), HolonomyError),
    "non-finite": (_build, (complex("nan"), BASE_Y, BASE_Z), ValueError),
    # one z step from the base anchor to y = 3 + 2i is too long
    "branch step": (
        lambda x, y, z: continue_representation(x, y),
        (BASE_X, BASE_Y + 3.0, BASE_Z),
        HolonomyError,
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_ROWS))
@pytest.mark.parametrize("row", [0, 2])
def test_one_bad_row_refuses_the_batch(name, row):
    op, bad, error = BAD_ROWS[name]
    batch = [np.full(4, e, dtype=complex) for e in (BASE_X, BASE_Y, BASE_Z)]
    op(*batch)
    for column, value in zip(batch, bad):
        column[row] = value
    with pytest.raises(error) as batch_exc:
        op(*batch)
    assert batch_exc.value.row == row
    assert f"row {row}: " in str(batch_exc.value)
    # the point alone raises the same type, with the same reason
    with pytest.raises(error) as one_exc:
        op(*bad)
    assert type(one_exc.value) is type(batch_exc.value)
    assert str(one_exc.value) == batch_exc.value.reason


def test_sl2_inverse_refuses_a_bad_row():
    m = np.array([[[2.0, 1.0], [3.0, 2.0]]] * 3, dtype=complex)
    assert np.abs(m @ sl2_inverse(m) - np.eye(2)).max() < 1e-15
    m[1, 0, 0] = 4.0
    with pytest.raises(HolonomyError, match="row 1: matrix determinant") as exc:
        sl2_inverse(m)
    assert exc.value.row == 1


def test_a_non_finite_parameter_is_refused_before_the_radicand():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            continue_representation(np.array([np.nan, -1.0]), np.array([2j, 2j]))
    assert exc.value.row == 0
    assert exc.value.reason == "non-finite value (nan+0j)"
