from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conetube import (
    TOLERANCES,
    Slope,
    expand_from_samples,
    filled_curve_sampler,
    k_expansions,
    whitehead_a_polynomial,
    whitehead_k_reference,
)
from conetube import cli, curves
from conetube.cli import main
from tests.oracles import (
    coprime_slope_pairs,
    stepwise_representations,
    verify_draws,
    verify_residuals,
    walked_point,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_base_json(capsys):
    code, out, _ = run(capsys, "base")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["z"][0] == {"re": 0.5, "im": 0.5}
    assert payload["eigenvalues"]["m2"]["re"] == pytest.approx(-1.0)


def test_acoeffs_json_values(capsys):
    code, out, _ = run(capsys, "acoeffs")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "polynomial"
    assert payload["a1"]["re"] == pytest.approx(2.0, abs=1e-9)
    assert payload["a1"]["im"] == pytest.approx(2.0, abs=1e-9)
    assert payload["involution_defect_abs"] < 1e-10


def test_acoeffs_csv_roundtrip(capsys):
    code, out, _ = run(capsys, "acoeffs", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "method"
    record = dict(zip(rows[0], rows[1]))
    assert float(record["a2_re"]) == pytest.approx(2.0, abs=1e-9)
    assert float(record["a2_im"]) == pytest.approx(-6.0, abs=1e-9)
    assert float(record["a3_re"]) == pytest.approx(-12.0, abs=1e-8)


def test_non_coprime_slope_exits_3(capsys):
    with pytest.raises(SystemExit) as err:
        main(["acoeffs", "--p1", "4", "--q1", "2"])
    assert err.value.code == 3


@pytest.mark.parametrize("argv", [
    ["kcoeffs", "--p2", "1", "--q2", str(10**400)],
    ["tube", "--p2", "1", "--q2", str(10**400), "--theta", "0.1"],
    ["acoeffs", "--p1", "1", "--q1", str(10**400)],
])
def test_slope_too_large_for_a_float_exits_3(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 3
    assert f"slope (1, {10**400}) is too large for a float" in capsys.readouterr().err


def test_partial_slope_pair_exits_3(capsys):
    with pytest.raises(SystemExit) as err:
        main(["acoeffs", "--p1", "9"])
    assert err.value.code == 3


def test_theta_out_of_range_exits_3(capsys):
    with pytest.raises(SystemExit) as err:
        main(["tube", "--p2", "1", "--q2", "0", "--theta", "0.7"])
    assert err.value.code == 3


def test_unknown_command_exits_3(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 3


def test_kcoeffs_agreement(capsys):
    code, out, _ = run(capsys, "kcoeffs", "--p2", "1", "--q2", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["agreement"] is True
    assert payload["jet"]["k0"] == pytest.approx(6.5, abs=1e-8)
    assert payload["reference"]["source"] == "closed-form"


def test_k1scan_rows(capsys):
    code, out, _ = run(capsys, "k1scan", "--max", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    slopes = {(int(r[0]), int(r[1])) for r in rows[1:]}
    assert slopes == {(1, 0), (0, 1), (1, 1), (-1, 1)}
    for r in rows[1:]:
        assert -1 / 6 - 1e-9 < float(r[3]) < -1 / 12 + 1e-9


def test_tube_csv(capsys):
    code, out, _ = run(
        capsys, "tube", "--p2", "1", "--q2", "0", "--theta", "0.05", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    record = dict(zip(rows[0], rows[1]))
    assert float(record["mu_hat_sq"]) == pytest.approx(0.5, abs=5e-3)
    assert float(record["theta"]) == 0.05


def test_a_refused_tube_names_the_theta_reached(capsys):
    code, out, err = run(
        capsys, "tube", "--p1", "9", "--q1", "1", "--p2", "1", "--q2", "0", "--theta", "0.5"
    )
    assert (code, out) == (2, "")
    assert re.match(r"conetube: theta 0\.3\d* of 0\.5 reached: chart coordinate ", err), err


@pytest.mark.parametrize("theta", ["1e-300", "1e-9", "5e-8"])
def test_a_theta_below_float_resolution_says_so(capsys, theta):
    code, out, err = run(capsys, "tube", "--p2", "1", "--q2", "0", "--theta", theta)
    assert (code, out) == (2, "")
    assert err == (
        f"conetube: theta {float(theta):g} is below what the float pipeline resolves: "
        "the peripheral element is parabolic to rounding\n"
    )
    # the smallest theta that README.md states for this slope
    assert run(capsys, "tube", "--p2", "1", "--q2", "0", "--theta", "2e-7")[0] == 0


@pytest.mark.parametrize("theta", ["0.5", "0.1"])
def test_a_large_second_cusp_slope_solves(capsys, theta):
    # 3000 log(-m2) carries about 3000 eps of rounding while the relation's
    # terms sum to about theta: Newton's bound counts each term as at least
    # its coefficient, so the solve stops where the rounding does
    code, out, err = run(capsys, "tube", "--p2", "3000", "--q2", "1", "--theta", theta)
    assert (code, err) == (0, "")
    assert json.loads(out)["theta"] == float(theta)


def test_a_larger_slope_solves_on_its_residuals_scale(capsys):
    # 10000 log(-l2) carries about 1e-12 of rounding: the final check judges
    # each filling residual on its own scale, as Newton's bound does, where
    # an absolute 1e-12 refused the converged structure
    code, out, err = run(capsys, "tube", "--p2", "1", "--q2", "10000", "--theta", "0.1")
    assert (code, err) == (0, "")
    ref = whitehead_k_reference(Slope.make(1, 10000))
    mu_hat_sq = json.loads(out)["mu_hat_sq"]
    assert abs(mu_hat_sq - (ref.k0 + ref.k1 * 0.01)) <= 0.05 * 0.1**4 * ref.k0


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--points", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["failed"] == 0
    assert {c["check"] for c in payload["checks"]} == {
        "gluing_residual",
        "group_relations",
        "commutator_trace",
        "cusp_trace_relations",
    }


def test_verify_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "--points", "5")
    _, out2, _ = run(capsys, "verify", "--points", "5")
    assert out1 == out2


def test_verify_impossible_tol_fails(capsys):
    code, out, err = run(capsys, "verify", "--points", "5", "--tol", "1e-30")
    assert code == 2
    assert json.loads(out)["pass"] is False
    assert re.fullmatch(r"conetube: verify failed [1-4] of 4 checks: [a-z_, ]+\n", err), err


@pytest.mark.parametrize("points", [str(cli._VERIFY_MAX_POINTS + 1), str(10**12)])
def test_verify_points_above_the_cap_exit_3(capsys, points):
    code, out, err = _exit_code(capsys, "verify", "--points", points)
    assert (code, out) == (3, "")
    assert f"--points must be at most {cli._VERIFY_MAX_POINTS}" in err


def test_negative_seed_exits_3(capsys):
    code, out, err = _exit_code(capsys, "verify", "--points", "5", "--seed", "-1")
    assert code == 3
    assert out == ""
    assert "--seed must be non-negative" in err


def test_env_tol_fallback(capsys, monkeypatch):
    monkeypatch.setenv("CONETUBE_TOL", "1e-30")
    code, out, _ = run(capsys, "verify", "--points", "5")
    assert code == 2
    monkeypatch.setenv("CONETUBE_TOL", "not-a-number")
    code, _, err = run(capsys, "verify", "--points", "5")
    assert code == 3
    assert "CONETUBE_TOL" in err


def test_verify_reads_the_shared_tolerances(capsys, monkeypatch):
    monkeypatch.delenv("CONETUBE_TOL", raising=False)
    monkeypatch.setattr(
        "conetube.cli.TOLERANCES", dataclasses.replace(TOLERANCES, trace_relation=0.25)
    )
    code, out, _ = run(capsys, "verify", "--points", "5")
    assert code == 0
    tols = {c["check"]: c["tol"] for c in json.loads(out)["checks"]}
    assert tols == {
        "gluing_residual": TOLERANCES.algebraic,
        "group_relations": TOLERANCES.group_relation,
        "commutator_trace": TOLERANCES.commutator_trace,
        "cusp_trace_relations": 0.25,
    }


def test_base_tol_overrides_both_of_its_fields(capsys, monkeypatch):
    monkeypatch.delenv("CONETUBE_TOL", raising=False)
    code, out, _ = run(capsys, "base", "--tol", "1e-3")
    assert code == 0
    assert json.loads(out)["tol"] == {"gluing": 1e-3, "relations": 1e-3}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["k1scan", "--max", "0"], "--max must be at least 1"),
        (["verify", "--seed", "-1"], "--seed must be non-negative"),
        (["tube", "--p2", "1", "--q2", "0", "--theta", "nan"], "--theta must be finite"),
        # above the cap the slope box would not fit in memory: refused before it is built
        (["k1scan", "--max", str(cli._K1SCAN_MAX_NORM + 1)], "--max must be at most 1000"),
        (["k1scan", "--max", str(10**8)], "--max must be at most 1000"),
    ],
)
def test_a_handler_usage_error_prints_its_command_usage(capsys, argv, message):
    code, out, err = _exit_code(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith(f"usage: conetube {argv[0]} ")
    assert f"conetube {argv[0]}: error: {message}" in err


def test_explicit_tol_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("CONETUBE_TOL", "1e-30")
    code, _, _ = run(capsys, "verify", "--points", "5", "--tol", "1e-6")
    assert code == 0


def _exit_code(capsys, *argv):
    """(exit code, stdout, stderr) whether main returns or argparse exits."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_VERDICT_COMMANDS = [
    ["base"],
    ["kcoeffs", "--p2", "3", "--q2", "1"],
    ["verify", "--points", "3"],
]
_BAD_TOLS = ["nan", "inf", "-inf", "0", "-1e-3", "abc"]


@pytest.mark.parametrize("argv", _VERDICT_COMMANDS)
@pytest.mark.parametrize("value", _BAD_TOLS)
def test_bad_tol_flag_exits_3(capsys, monkeypatch, argv, value):
    monkeypatch.delenv("CONETUBE_TOL", raising=False)
    code, out, err = _exit_code(capsys, *argv, f"--tol={value}")
    assert code == 3
    assert out == ""
    assert "argument --tol" in err and "not a finite positive number" in err


@pytest.mark.parametrize("argv", _VERDICT_COMMANDS)
@pytest.mark.parametrize("value", _BAD_TOLS)
def test_bad_env_tol_exits_3(capsys, monkeypatch, argv, value):
    monkeypatch.setenv("CONETUBE_TOL", value)
    code, out, err = _exit_code(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "CONETUBE_TOL" in err and "not a finite positive number" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["acoeffs"],
        ["k1scan", "--max", "3"],
        ["converge", "--n", "8"],
        ["tube", "--p2", "1", "--q2", "0", "--theta", "0.1"],
    ],
)
def test_tol_only_on_commands_that_give_a_verdict(capsys, monkeypatch, argv):
    monkeypatch.delenv("CONETUBE_TOL", raising=False)
    code, _, err = _exit_code(capsys, *argv, "--tol", "1e-3")
    assert code == 3
    assert "unrecognized arguments: --tol" in err
    expected = _exit_code(capsys, *argv)
    monkeypatch.setenv("CONETUBE_TOL", "nan")
    assert _exit_code(capsys, *argv) == expected
    assert expected[0] == 0


def test_kcoeffs_refuses_tol_next_to_a_first_cusp_slope(capsys, monkeypatch):
    monkeypatch.delenv("CONETUBE_TOL", raising=False)
    argv = ["kcoeffs", "--p1", "40", "--q1", "1", "--p2", "3", "--q2", "1"]
    code, out, err = _exit_code(capsys, *argv, "--tol", "0.5")
    assert code == 3
    assert out == ""
    assert "--tol gives no verdict next to --p1/--q1" in err


@pytest.mark.parametrize("env", ["0.5", "nan"])
def test_filled_kcoeffs_ignores_the_env_tol(capsys, monkeypatch, env):
    monkeypatch.setenv("CONETUBE_TOL", env)
    code, out, _ = run(capsys, "kcoeffs", "--p1", "40", "--q1", "1", "--p2", "3", "--q2", "1")
    assert code == 0
    payload = json.loads(out)
    assert (payload["reference"], payload["agreement"], payload["tol"]) == (None, None, None)


def test_unfilled_kcoeffs_reads_the_env_tol(capsys, monkeypatch):
    monkeypatch.setenv("CONETUBE_TOL", "0.5")
    code, out, _ = run(capsys, "kcoeffs", "--p2", "3", "--q2", "1")
    assert code == 0
    assert json.loads(out)["tol"] == 0.5


@pytest.mark.parametrize(
    "command, fields",
    [
        ("base", ["algebraic", "group_relation"]),
        ("kcoeffs", ["k_reference"]),
        ("verify", ["algebraic", "group_relation", "commutator_trace", "trace_relation"]),
    ],
)
def test_tol_help_names_the_fields_it_overrides(capsys, command, fields):
    code, out, _ = _exit_code(capsys, command, "--help")
    assert code == 0
    assert all(f in out for f in fields)
    assert set(fields) <= {f.name for f in dataclasses.fields(TOLERANCES)}


def test_converge_keeps_the_rows_a_slope_refusal_spares(capsys):
    code, out, _ = run(capsys, "converge", "--n", "3", "8")
    assert code == 0
    rows = {r["slope1"]: r for r in json.loads(out)["rows"]}
    assert list(rows) == ["3,1", "8,1", "unfilled"]
    assert rows["3,1"] == {"slope1": "3,1", "failure": "|p1| + |q1| = 4 below floor 8"}
    assert "failure" not in rows["8,1"]
    assert rows["8,1"]["err_a1"] < 0.5
    assert all(k in rows["8,1"] for k in ("a1", "a2", "a3"))


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "base", "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["command"] == "base"


def test_csv_uses_crlf(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, _, _ = run(
        capsys, "acoeffs", "--format", "csv", "--output", str(target)
    )
    assert code == 0
    assert b"\r\n" in target.read_bytes()


def test_converge_table(capsys):
    code, out, _ = run(capsys, "converge", "--n", "8")
    assert code == 0
    payload = json.loads(out)
    labels = [r["slope1"] for r in payload["rows"]]
    assert labels == ["8,1", "unfilled"]
    assert payload["rows"][0]["err_a1"] < 0.5


def _k1scan_reference(max_norm: int, slope1: Slope | None, fmt: str) -> bytes:
    """k1scan's output, built as one dict per entry and serialized by json or csv whole."""
    if slope1 is None:
        curve, method, echo = cli._builtin_curve(), "polynomial", None
    else:
        curve = expand_from_samples(filled_curve_sampler(slope1), -1, -1)
        method, echo = "sampled", {"p": slope1.p, "q": slope1.q, "r": slope1.r, "s": slope1.s}
    p, q = zip(*coprime_slope_pairs(max_norm))
    k0, k1 = k_expansions(curve.symmetrized(), list(p), list(q))
    entries = [
        {"p2": a, "q2": b, "k0": c, "k1": d} for a, b, c, d in zip(p, q, k0.tolist(), k1.tolist())
    ]
    if fmt == "json":
        payload = {
            "command": "k1scan",
            "curve_method": method,
            "slope1": echo,
            "max_norm": max_norm,
            "entries": entries,
            "k1_min": min(e["k1"] for e in entries),
            "k1_max": max(e["k1"] for e in entries),
        }
        return (json.dumps(payload, indent=2) + "\n").encode()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["p2", "q2", "k0", "k1"])
    for e in entries:
        writer.writerow([cli._cell(v) for v in e.values()])
    return buf.getvalue().encode()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_streamed_output_is_byte_identical(tmp_path, fmt):
    target = tmp_path / "scan"
    for max_norm, slope1 in [(1, None), (8, None), (60, None), (12, (40, 1))]:
        argv = ["k1scan", "--max", str(max_norm), "--format", fmt, "--output", str(target)]
        if slope1 is not None:
            argv += ["--p1", str(slope1[0]), "--q1", str(slope1[1])]
            slope1 = Slope.make(*slope1)
        assert main(argv) == 0
        assert target.read_bytes() == _k1scan_reference(max_norm, slope1, fmt), max_norm


def test_coprime_slope_columns_equal_the_pair_loop():
    for max_norm in range(1, 81):
        p, q = cli._coprime_slopes(max_norm)
        assert list(zip(p.tolist(), q.tolist())) == coprime_slope_pairs(max_norm)


def test_k1scan_builds_no_slope_per_scanned_slope(tmp_path, monkeypatch):
    made = []
    make = Slope.make.__func__
    monkeypatch.setattr(
        Slope, "make", classmethod(lambda cls, p, q: made.append((p, q)) or make(cls, p, q))
    )
    assert main(["k1scan", "--max", "30", "--output", str(tmp_path / "scan.json")]) == 0
    assert made == []
    # the count sees a slope that is made
    assert main(["kcoeffs", "--p2", "3", "--q2", "1", "--output", str(tmp_path / "k.json")]) == 0
    assert made == [(3, 1)]


def test_k1scan_at_large_norm(tmp_path, capsys):
    target = tmp_path / "scan.json"
    assert main(["k1scan", "--max", "200", "--output", str(target)]) == 0
    entries = json.loads(target.read_text())["entries"]
    assert len(entries) == 24464
    gap = max(
        abs(e["k1"] - whitehead_k_reference(Slope.make(e["p2"], e["q2"])).k1) for e in entries
    )
    assert gap <= 1e-10


@pytest.mark.parametrize(
    "argv",
    [
        ["acoeffs"],
        ["kcoeffs", "--p2", "1", "--q2", "0"],
        ["k1scan", "--max", "3"],
        ["tube", "--p2", "1", "--q2", "0", "--theta", "0.1"],
    ],
)
def test_unfilled_excludes_a_first_cusp_slope(capsys, argv):
    for slope1 in (["--p1", "9", "--q1", "1"], ["--q1", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--unfilled"] + slope1)
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert "--unfilled and --p1/--q1" in err
    # on its own it names the default
    code, out, _ = run(capsys, *argv, "--unfilled")
    assert code == 0
    assert out == run(capsys, *argv)[1]


@pytest.mark.parametrize(
    "points, seed",
    # the printed l1 identity put these over the 1e-9 bound (1.35e-9, 8.5e-7)
    [(50, 3), (200, 1500881322)],
)
def test_verify_cusp_trace_relations_near_the_base(capsys, points, seed):
    code, out, _ = run(capsys, "verify", "--points", str(points), "--seed", str(seed))
    assert code == 0
    checks = {c["check"]: c for c in json.loads(out)["checks"]}
    assert checks["cusp_trace_relations"]["max_residual"] < 1e-9
    assert checks["cusp_trace_relations"]["tol"] == 1e-9


def test_verify_uses_one_draw_per_point_in_order(monkeypatch):
    # each check is one pass per block: record the passes' inputs, and check
    # every point against the arithmetic of its own draw
    points, seed = 20, 11
    solved, represented = [], []
    solve, represent = cli.solve_shapes, cli.representation_at

    def record_solve(u, v):
        solved.append((u, v))
        return solve(u, v)

    def record_representation(x, y):
        represented.append((x, y))
        return represent(x, y)

    monkeypatch.setattr(cli, "solve_shapes", record_solve)
    monkeypatch.setattr(cli, "representation_at", record_representation)
    monkeypatch.setattr(cli, "_VERIFY_BLOCK", 8)
    checks = cli._verify_checks(points, seed, None)
    assert [c["points"] for c in checks] == [points] * 4

    # the points as drawn one at a time, check after check
    rng = np.random.default_rng(seed)
    base = 0.5 + 0.5j

    def draws(radius):
        offs = [rng.uniform(-radius, radius, size=4) for _ in range(points)]
        return [(complex(o[0], o[1]), complex(o[2], o[3])) for o in offs]

    gluing, holonomy, cusp = draws(0.08), draws(0.12), draws(0.08)
    blocks = [range(0, 8), range(8, 16), range(16, 20)]
    # one pass per block and check; each point solved twice and represented once
    assert len(solved) == 2 * len(blocks) and len(represented) == len(blocks)
    assert sum(u.size for u, _ in solved) == 2 * points
    assert sum(x.size for x, _ in represented) == points

    def concat(calls):
        return [complex(z) for u, v in calls for pair in zip(u, v) for z in pair]

    assert concat(solved[:3]) == [z for du, dv in gluing for z in (base + du, base + dv)]
    assert concat(represented) == [z for dx, dy in holonomy for z in (-1.0 + dx, 2j + dy)]
    assert concat(solved[3:]) == [z for du, dv in cusp for z in (base + du, base + dv)]


@pytest.mark.parametrize(
    "points, seed",
    [(1, 7), (25, 1), (400, 2), (cli._VERIFY_BLOCK + 1, 4), (50, 3), (200, 1500881322)],
)
def test_stacked_walks_equal_the_stepwise_walks(points, seed):
    # verify takes each point in one pass, with no walk from the base: its z
    # branch and eigenvalues are those of the walks, substep by substep
    _, h, c = verify_draws(points, seed)
    x, y = -1.0 + h[:, 0], 2j + h[:, 1]
    walked = stepwise_representations(x, y)[-1]
    rep = cli.representation_at(x, y)
    assert np.abs(rep.z - walked.z).max() <= 1e-14
    assert np.abs(rep.gamma - walked.gamma).max() <= 1e-14

    base = 0.5 + 0.5j
    u, v = base + c[:, 0], base + c[:, 1]
    _, _, walked_ev, _ = walked_point(u, v, 8)
    ev = cli.cusp_eigenvalues(cli.solve_shapes(u, v))
    for name in ("m1", "l1", "m2", "l2"):
        assert np.abs(getattr(ev, name) - getattr(walked_ev, name)).max() <= 1e-14

    # and the whole suite: each check's worst residual is that of one batch of
    # every point, bit for bit, whatever the block size
    whole = verify_residuals(points, seed)
    for check in cli._verify_checks(points, seed, None):
        assert check["max_residual"] == float(whole[check["check"]].max()), check["check"]


class _InjectedDraw:
    """numpy's generator for verify, with one offset of one check's draw replaced."""

    def __init__(self, seed, check: int, row: int, offset: list[float]):
        self._rng, self._calls = _default_rng(seed), 0
        self._check, self._row, self._offset = check, row, offset

    def uniform(self, low, high, size):
        out = self._rng.uniform(low, high, size)
        if self._calls == self._check:
            out[self._row] = self._offset
        self._calls += 1
        return out


_default_rng = np.random.default_rng


@pytest.mark.parametrize(
    "check, offset, reason",
    [
        # y = -0.1i, where z^2 = -1/y lies opposite the base's z^2 = i/2
        (1, [0.0, 0.0, 0.0, -2.1], "z^2 (-0-9.999999999999991j) leaves the half-plane"),
        # a cusp point beyond the chart, where the orientation may not fix the branch
        (2, [0.0, -0.36, 0.0, 0.0], "chart coordinate 0.360 from base exceeds radius 0.35"),
    ],
    ids=["z half-plane", "chart radius"],
)
def test_a_refused_point_names_its_point(capsys, monkeypatch, check, offset, reason):
    monkeypatch.setattr(
        np.random, "default_rng", lambda seed: _InjectedDraw(seed, check, 13, offset)
    )
    code, out, err = run(capsys, "verify", "--points", "20")
    # a refusal with its reason, not a traceback's exit 1
    assert code == 2
    assert out == ""
    assert err.startswith(f"conetube: point 13: {reason}")


def test_a_refused_row_names_the_drawn_point():
    u = np.full(8, 0.5 + 0.5j)
    u[6] += 0.4  # beyond the chart radius
    with pytest.raises(cli.GluingError, match=r"^point 1030: chart coordinate 0\.400") as exc:
        with cli._points_from(1024):
            cli.solve_shapes(u, 0.5 + 0.5j)
    assert type(exc.value) is cli.GluingError


def test_builtin_curve_is_expanded_once_per_process(tmp_path, monkeypatch):
    calls = []
    expand = cli.expand_from_polynomial

    def counted(*args):
        calls.append(args)
        return expand(*args)

    monkeypatch.setattr(cli, "expand_from_polynomial", counted)
    cli._builtin_curve.cache_clear()
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main(["k1scan", "--max", "8", "--output", str(first)]) == 0
    assert main(["k1scan", "--max", "8", "--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert len(calls) == 1


def test_a_rewritten_polynomial_file_is_read_again(tmp_path, capsys):
    poly = tmp_path / "poly.json"

    def scan(a):
        # the line l + 1 = a (m + 1), a curve through (-1, -1) with slope a
        terms = [(1, 0, 1.0), (0, 0, 1.0 - a), (0, 1, -a)]
        poly.write_text(json.dumps({"terms": [
            {"dl": dl, "dm": dm, "re": c.real, "im": c.imag} for dl, dm, c in terms
        ]}))
        code, out, _ = run(capsys, "acoeffs", "--polynomial", str(poly))
        assert code == 0
        return json.loads(out)["a1"]

    assert scan(2 + 2j) == pytest.approx({"re": 2.0, "im": 2.0})
    assert scan(2 + 1.5j) == pytest.approx({"re": 2.0, "im": 1.5})


MALFORMED_POLYNOMIALS = {
    # name: (file text, what the refusal says)
    "not json": ("{terms: [", "bad polynomial JSON"),
    "degree not an integer": ('{"terms": [{"dl": "x", "dm": 0, "re": 1.0}]}', "bad polynomial JSON"),
    "coefficient not a number": (
        '{"terms": [{"dl": 1, "dm": 0, "re": "abc"}]}', "bad polynomial JSON"
    ),
    "coefficient overflows": ('{"terms": [{"dl": 1, "dm": 0, "re": 1e400}]}', "non-finite"),
    "coefficient not finite": ('{"terms": [{"dl": 1, "dm": 0, "re": NaN}]}', "non-finite"),
    "integer coefficient overflows": (
        '{"terms": [{"dl": 1, "dm": 0, "re": 1%s}]}' % ("0" * 400), "bad polynomial JSON"
    ),
    "negative degree": (
        '{"terms": [{"dl": -1, "dm": 0, "re": 1.0}, {"dl": 1, "dm": 0, "re": -1.0}]}',
        "negative degree",
    ),
    # int() read 1.7 as 1 and true as 1, and float() read true as 1.0
    "degree not integral": (
        '{"terms": [{"dl": 1.7, "dm": 0, "re": 1.0}, {"dl": 0, "dm": 0, "re": -1.0}]}',
        "degree 1.7 is not an integer",
    ),
    "degree a boolean": (
        '{"terms": [{"dl": 1, "dm": true, "re": 1.0}, {"dl": 0, "dm": 0, "re": -1.0}]}',
        "degree True is not an integer",
    ),
    "coefficient a boolean": (
        '{"terms": [{"dl": 1, "dm": 0, "re": true}, {"dl": 0, "dm": 0, "re": -1.0}]}',
        "coefficient True is not a number",
    ),
    # the built-in polynomial plus l^N (m^2 - 1)^2, N = 10^300: its binomials
    # overflowed a float, and at N = 10^5 the expansion took seconds
    "degree above the cap": (
        json.dumps({"terms": whitehead_a_polynomial().to_json_dict()["terms"] + [
            {"dl": 10**300, "dm": dm, "re": c} for dm, c in ((4, 1.0), (2, -2.0), (0, 1.0))
        ]}),
        "degree above 1000 in the term l^1%s m^4" % ("0" * 300),
    ),
    # json reads an integer of more than 4300 digits with a ValueError of its own
    "degree of too many digits": (
        '{"terms": [{"dl": 1%s, "dm": 0, "re": 1.0}]}' % ("0" * 5000), "bad polynomial JSON"
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_POLYNOMIALS))
def test_a_malformed_polynomial_file_exits_2(tmp_path, capsys, name):
    text, reason = MALFORMED_POLYNOMIALS[name]
    poly = tmp_path / "poly.json"
    poly.write_text(text)
    code, out, err = run(capsys, "acoeffs", "--polynomial", str(poly))
    assert (code, out) == (2, "")
    assert err.startswith("conetube: ") and reason in err


def test_the_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    code, _, err = _exit_code(capsys, "k1scan", "--max", "0")
    assert code == 3 and "--max must be at least 1" in err
    code, _, err = _exit_code(capsys, "k1scan", "--frobnicate")
    assert code == 3 and "unrecognized arguments" in err
    assert main(["k1scan", "--max", "2", "--output", str(tmp_path / "scan.json")]) == 0
    assert main(["converge", "--n", "8", "--output", str(tmp_path / "converge.json")]) == 0
    assert cli.build_parser().parse_args(["converge"]).n == [8, 16, 32, 64]


def _readme_commands() -> list[str]:
    """The command lines of README.md's fenced sh block of conetube examples."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = []
    for block in text.split("```sh\n")[1:]:
        body = block.split("```", 1)[0]
        lines += [
            line.split("#", 1)[0].strip()
            for line in body.splitlines()
            if line.startswith("conetube ")
        ]
    return lines


def test_readme_has_command_examples():
    assert len(_readme_commands()) >= 8


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_example_runs(tmp_path, monkeypatch, line):
    monkeypatch.delenv("CONETUBE_TOL", raising=False)
    target = tmp_path / "out.json"
    argv = shlex.split(line)[1:]
    assert main(argv + ["--output", str(target)]) == 0
    assert json.loads(target.read_text())["command"] == argv[0]


# slopes: small ones, the float-range ones up to 10^80, and their extremes
_SLOPE = st.one_of(
    st.integers(-12, 12), st.integers(-(10**80), 10**80), st.sampled_from([10**80, -(10**80)])
)
# --theta and --tol values: the edges of the float range and of each accepted interval
_REAL = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "5e-324", "1e-310", "1e-300", "1e-9", "0.5"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(0.0, 1.0).map(repr),
)
# pairs: any two slopes, most of them refused, and coprime ones that get past the parser
_PAIR = st.one_of(
    st.tuples(_SLOPE, _SLOPE),
    st.sampled_from([(1, 0), (0, 1), (-2, 1), (9, 1), (5, 3), (10**80 + 1, 10**80), (1, -(10**80))]),
)
_SLOPE1 = st.one_of(
    st.just([]),
    st.just(["--unfilled"]),
    _PAIR.map(lambda pq: ["--p1", str(pq[0]), "--q1", str(pq[1])]),
)
_SLOPE2 = _PAIR.map(lambda pq: ["--p2", str(pq[0]), "--q2", str(pq[1])])
_TOL = st.one_of(st.just([]), _REAL.map(lambda t: ["--tol", t]))
_ARGV = st.one_of(
    _TOL.map(lambda tol: ["base", *tol]),
    _SLOPE1.map(lambda s1: ["acoeffs", *s1]),
    st.tuples(_SLOPE1, _SLOPE2, _TOL).map(lambda a: ["kcoeffs", *a[0], *a[1], *a[2]]),
    # the scan's cost grows with --max squared: small norms, and those above the cap
    st.one_of(st.integers(-2, 4), st.integers(cli._K1SCAN_MAX_NORM + 1, 10**80)).map(
        lambda n: ["k1scan", "--max", str(n)]
    ),
    st.lists(_SLOPE, min_size=1, max_size=3).map(lambda ns: ["converge", "--n", *map(str, ns)]),
    st.tuples(_SLOPE1, _SLOPE2, st.one_of(_REAL, st.floats(1e-12, 0.5).map(repr))).map(
        lambda a: ["tube", *a[0], *a[1], "--theta", a[2]]
    ),
    # verify's cost grows with --points: small counts, and those above the cap
    st.tuples(
        st.one_of(st.integers(-1, 3), st.integers(cli._VERIFY_MAX_POINTS + 1, 10**80)),
        st.integers(-1, 2**32),
        _TOL,
    ).map(
        lambda a: ["verify", "--points", str(a[0]), "--seed", str(a[1]), *a[2]]
    ),
)


def _assert_exits_0_2_or_3_with_a_one_line_reason(argv, missing_output):
    if missing_output:
        argv = argv + ["--output", str(Path(__file__).parent / "no such directory" / "out")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    elif code == 2:
        assert len(lines) == 1 and lines[0].startswith("conetube: "), lines
    else:
        assert code == 3, (code, lines)
        assert lines[0].startswith("usage: conetube "), lines
        assert re.match(rf"conetube {argv[0]}: error: .", lines[-1]), lines


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=_ARGV, missing_output=st.booleans())
def test_every_input_exits_0_2_or_3_with_a_one_line_reason(argv, missing_output):
    _assert_exits_0_2_or_3_with_a_one_line_reason(argv, missing_output)


# a --polynomial file's degrees and coefficient parts as JSON text: small
# valid ones, and booleans, non-integral, negative, non-finite, above the
# degree cap, of more digits than json reads, or not numbers
_DEGREE = st.one_of(
    st.integers(0, 4).map(str),
    st.integers(-(10**400), -1).map(str),
    st.integers(curves._MAX_DEGREE + 1, 10**400).map(str),
    st.sampled_from(["true", "false", "1.5", "-0.5", "2.0", "1e300", "null", '"x"', "1" + "0" * 5000]),
)
_PART = st.one_of(
    st.floats(-8, 8).map(repr),
    st.sampled_from(["true", "NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400, "null", '"abc"']),
)
_TERM = st.tuples(_DEGREE, _DEGREE, _PART, st.one_of(st.just(""), _PART.map(', "im": {}'.format))).map(
    lambda t: '{"dl": %s, "dm": %s, "re": %s%s}' % t
)
# c l^a m^b and -c l^a m^(b+1) cancel at the base point (-1, -1), so a file
# with such a pair gets past the root check to the expansion, which reads
# the degrees
_CANCELLING_PAIR = st.tuples(_DEGREE, st.integers(0, 4), _PART).map(
    lambda t: '{"dl": %s, "dm": %d, "re": %s}, {"dl": %s, "dm": %d, "re": -%s}'
    % (t[0], t[1], t[2], t[0], t[1] + 1, t[2])
)
_BUILTIN_TERMS = [json.dumps(term) for term in whitehead_a_polynomial().to_json_dict()["terms"]]
_POLYNOMIAL_TEXT = st.one_of(
    st.just('{"terms": [%s]}' % ", ".join(_BUILTIN_TERMS)),
    # the built-in terms with drawn ones added, and drawn terms alone, empty included
    st.lists(st.one_of(_TERM, _CANCELLING_PAIR), max_size=2).map(
        lambda ts: '{"terms": [%s]}' % ", ".join(_BUILTIN_TERMS + ts)
    ),
    st.lists(_TERM, max_size=3).map(lambda ts: '{"terms": [%s]}' % ", ".join(ts)),
    st.sampled_from(["", "{terms: [", "[]", "null", "{}", '{"terms": 3}', '{"terms": [1]}']),
)
# the commands that read --polynomial: the first cusp unfilled, each at a small cost
_POLYNOMIAL_ARGV = st.sampled_from([
    ["acoeffs"],
    ["acoeffs", "--unfilled"],
    ["kcoeffs", "--p2", "3", "--q2", "1"],
    ["k1scan", "--max", "2"],
    ["converge", "--n", "8"],
])


@pytest.fixture(scope="session")
def polynomial_dir(tmp_path_factory):
    """One directory for every drawn --polynomial file; hypothesis refuses a per-test tmp_path."""
    return tmp_path_factory.mktemp("polynomials")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=_POLYNOMIAL_ARGV, text=_POLYNOMIAL_TEXT, missing_output=st.booleans())
def test_every_polynomial_file_exits_0_2_or_3_with_a_one_line_reason(
    polynomial_dir, argv, text, missing_output
):
    poly = polynomial_dir / "poly.json"
    poly.write_text(text)
    _assert_exits_0_2_or_3_with_a_one_line_reason(argv + ["--polynomial", str(poly)], missing_output)
