"""Command-line front end: tables and verification suites as JSON or CSV.

Exit codes: 0 success, 2 computation failure, 3 input validation failure.
Complex numbers serialize as {"re": ..., "im": ...} in JSON and as paired
_re/_im columns in CSV; all floats print in round-trip precision.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from .config import ENV_TOL, TOLERANCES
from .curves import (
    CurveError,
    expand_from_polynomial,
    expand_from_samples,
    whitehead_a_polynomial,
    BivariatePolynomial,
)
from .gluing import (
    BASE_SHAPES,
    BranchAnchors,
    GluingError,
    cusp_eigenvalues,
    residuals,
    solve_shapes,
)
from .holonomy import (
    HolonomyError,
    base_representation,
    commutator_trace_minus2,
    continue_representation,
    relation_residuals,
    trace_identity_l1,
    trace_identity_m1,
)
from .jets import BranchError, JetError
from .surgery import (
    Slope,
    SurgeryError,
    convergence_table,
    filled_curve_sampler,
    solve_cone_structure,
    THETA_MAX,
)
from .tube import (
    TubeError,
    k_expansion_closed_form,
    k_expansions,
    measure_tube,
    whitehead_k_reference,
)

_ERRORS = (
    BranchError,
    CurveError,
    GluingError,
    HolonomyError,
    JetError,
    SurgeryError,
    TubeError,
    OSError,
)
_UNFILLED_HINT = 2 + 2j
_VERIFY_SEED = 20250819
# verify's points per batch: every run of up to this many points is one pass
_VERIFY_BLOCK = 1024


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for
    # computation failures, so remap to 3
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _c(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@contextlib.contextmanager
def _output_stream(args):
    if args.output:
        with open(args.output, "w", newline="") as fh:
            yield fh
    else:
        yield sys.stdout


def _write_csv(fh, header: list[str], rows) -> None:
    writer = csv.writer(fh, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)


def _write(args, payload: dict, header: list[str], rows: list[list]) -> None:
    """Serialize straight to the output stream; no whole-text copy is built."""
    with _output_stream(args) as fh:
        if args.format == "json":
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        else:
            _write_csv(fh, header, rows)


def _slope_or_exit(parser: _Parser, p: int, q: int, which: str) -> Slope:
    try:
        return Slope.make(p, q)
    except SurgeryError as exc:
        parser.error(f"{which}: {exc}")
        raise AssertionError("unreachable")


def _slope_echo(slope: Slope | None) -> dict | None:
    if slope is None:
        return None
    return {"p": slope.p, "q": slope.q, "r": slope.r, "s": slope.s}


@functools.cache
def _builtin_curve():
    """The built-in polynomial's curve; it reads no argument, so it is expanded once."""
    return expand_from_polynomial(whitehead_a_polynomial(), -1, -1, _UNFILLED_HINT)


def _unfilled_curve(args):
    if not args.polynomial:
        return _builtin_curve()
    with open(args.polynomial) as fh:
        poly = BivariatePolynomial.from_json(fh.read())
    return expand_from_polynomial(poly, -1, -1, _UNFILLED_HINT)


def _slope1(args, parser: _Parser) -> Slope | None:
    """The first-cusp filling slope, or None for the complete cusp (the default)."""
    if args.p1 is None and args.q1 is None:
        return None
    if args.unfilled:
        parser.error("--unfilled and --p1/--q1 exclude each other")
    if args.p1 is None or args.q1 is None:
        parser.error("--p1 and --q1 must be given together")
    return _slope_or_exit(parser, args.p1, args.q1, "(p1, q1)")


def _first_cusp_filled(args) -> bool:
    return getattr(args, "p1", None) is not None or getattr(args, "q1", None) is not None


def _curve_for(args, parser: _Parser):
    """(curve, method metadata) for an optionally filled first cusp."""
    slope1 = _slope1(args, parser)
    if slope1 is None:
        return _unfilled_curve(args), "polynomial", None
    curve = expand_from_samples(filled_curve_sampler(slope1), -1, -1)
    return curve, "sampled", slope1


def cmd_base(args, parser: _Parser) -> int:
    shapes = solve_shapes(BASE_SHAPES.z1, BASE_SHAPES.z2)
    r1, r2 = residuals(shapes)
    ev = cusp_eigenvalues(shapes)
    rep = base_representation()
    g1, g2 = (float(g) for g in relation_residuals(rep))
    # the gluing residuals are algebraic identities, the relations matrix products
    tol = {"gluing": TOLERANCES.algebraic, "relations": TOLERANCES.group_relation}
    if args.tol is not None:
        tol = dict.fromkeys(tol, args.tol)
    ok = max(abs(r1), abs(r2)) < tol["gluing"] and max(g1, g2) < tol["relations"]
    payload = {
        "command": "base",
        "z": [_c(z) for z in shapes.as_tuple()],
        "eigenvalues": {
            "m1": _c(ev.m1), "l1": _c(ev.l1), "m2": _c(ev.m2), "l2": _c(ev.l2)
        },
        "matrices": {
            name: [[_c(m[i, j]) for j in range(2)] for i in range(2)]
            for name, m in
            (("alpha", rep.alpha), ("beta", rep.beta), ("gamma", rep.gamma))
        },
        "residuals": {
            "gluing": [_c(r1), _c(r2)],
            "relations": [g1, g2],
        },
        "tol": tol,
        "pass": ok,
    }
    header = ["field", "value_re", "value_im"]
    rows = []
    for i, z in enumerate(shapes.as_tuple(), start=1):
        rows.append([f"z{i}", z.real, z.imag])
    for name in ("m1", "l1", "m2", "l2"):
        z = getattr(ev, name)
        rows.append([name, z.real, z.imag])
    for name, m in (("alpha", rep.alpha), ("beta", rep.beta), ("gamma", rep.gamma)):
        for i in range(2):
            for j in range(2):
                rows.append([f"{name}{i}{j}", m[i, j].real, m[i, j].imag])
    rows.append(["gluing_residual_1", r1.real, r1.imag])
    rows.append(["gluing_residual_2", r2.real, r2.imag])
    rows.append(["relation_residual_1", g1, 0.0])
    rows.append(["relation_residual_2", g2, 0.0])
    rows.append(["pass", _cell(ok), ""])
    _write(args, payload, header, rows)
    return 0


def cmd_acoeffs(args, parser: _Parser) -> int:
    curve, method, slope1 = _curve_for(args, parser)
    defect = curve.involution_defect()
    payload = {
        "command": "acoeffs",
        "method": method,
        "slope1": _slope_echo(slope1),
        "a1": _c(curve.a1),
        "a2": _c(curve.a2),
        "a3": _c(curve.a3),
        "involution_defect_abs": abs(defect),
    }
    header = [
        "method", "p1", "q1",
        "a1_re", "a1_im", "a2_re", "a2_im", "a3_re", "a3_im", "defect_abs",
    ]
    rows = [[
        method,
        slope1.p if slope1 else "",
        slope1.q if slope1 else "",
        curve.a1.real, curve.a1.imag,
        curve.a2.real, curve.a2.imag,
        curve.a3.real, curve.a3.imag,
        abs(defect),
    ]]
    _write(args, payload, header, rows)
    return 0


def cmd_kcoeffs(args, parser: _Parser) -> int:
    slope2 = _slope_or_exit(parser, args.p2, args.q2, "(p2, q2)")
    if args.tol is not None and _first_cusp_filled(args):
        parser.error("--tol gives no verdict next to --p1/--q1: a filled curve has no reference")
    curve, method, slope1 = _curve_for(args, parser)
    jet = k_expansion_closed_form(curve.symmetrized(), slope2)
    tol = None
    if slope1 is None:
        tol = args.tol if args.tol is not None else TOLERANCES.k_reference
        ref = whitehead_k_reference(slope2)
        agreement = abs(jet.k0 - ref.k0) < tol * max(1.0, abs(ref.k0)) and abs(
            jet.k1 - ref.k1
        ) < tol
        ref_payload = {"k0": ref.k0, "k1": ref.k1, "source": ref.source}
    else:
        ref, agreement, ref_payload = None, None, None
    payload = {
        "command": "kcoeffs",
        "curve_method": method,
        "slope1": _slope_echo(slope1),
        "slope2": _slope_echo(slope2),
        "jet": {"k0": jet.k0, "k1": jet.k1, "source": jet.source},
        "reference": ref_payload,
        "agreement": agreement,
        "tol": tol,
    }
    header = ["p2", "q2", "r2", "s2", "k0_jet", "k1_jet", "k0_ref", "k1_ref", "agreement"]
    rows = [[
        slope2.p, slope2.q, slope2.r, slope2.s,
        jet.k0, jet.k1,
        ref.k0 if ref else None,
        ref.k1 if ref else None,
        agreement,
    ]]
    _write(args, payload, header, rows)
    return 0


def _coprime_slopes(max_norm: int) -> tuple[np.ndarray, np.ndarray]:
    """(p, q) integer columns of the coprime slopes with |p| + q <= max_norm.

    One slope per line through the origin: q > 0, or (1, 0). One ``np.gcd``
    over the box |p| <= max_norm, 0 <= q <= max_norm picks them, and the
    box's row-major order sorts them by p, then q.
    """
    p = np.arange(-max_norm, max_norm + 1)[:, None]
    q = np.arange(max_norm + 1)
    keep = (np.abs(p) + q <= max_norm) & (np.gcd(p, q) == 1) & ((q > 0) | (p == 1))
    row, col = np.nonzero(keep)
    return row - max_norm, col


# one k1scan entry laid out as json.dump(payload, indent=2) lays it out:
# %d is json's int text, and %r its float text for a finite float (every
# Jet is checked finite)
_K1SCAN_ENTRY = '    {\n      "p2": %d,\n      "q2": %d,\n      "k0": %r,\n      "k1": %r\n    }'
# k1scan entries formatted per write: bounds the text held at once
_K1SCAN_WRITE_BLOCK = 1024


def _write_k1scan(args, head: dict, columns: tuple[list, ...], tail: dict) -> None:
    """Write ``head``, an "entries" list with one entry per row of ``columns``, then ``tail``.

    The same bytes as ``_write`` of the payload with its entries as dicts:
    ``json`` lays out the head and the tail, and ``_K1SCAN_ENTRY`` every entry.
    """
    rows = zip(*columns)
    with _output_stream(args) as fh:
        if args.format == "csv":
            _write_csv(fh, ["p2", "q2", "k0", "k1"], rows)
            return
        # head and tail are non-empty objects: drop the head's closing
        # "\n}" and the tail's opening "{\n"
        fh.write(json.dumps(head, indent=2)[:-2] + ',\n  "entries": [\n')
        for start in range(0, len(columns[0]), _K1SCAN_WRITE_BLOCK):
            block = itertools.islice(rows, _K1SCAN_WRITE_BLOCK)
            fh.write((",\n" if start else "") + ",\n".join(map(_K1SCAN_ENTRY.__mod__, block)))
        fh.write("\n  ],\n" + json.dumps(tail, indent=2)[2:] + "\n")


def cmd_k1scan(args, parser: _Parser) -> int:
    if args.max < 1:
        parser.error("--max must be at least 1")
    curve, method, slope1 = _curve_for(args, parser)
    p, q = _coprime_slopes(args.max)
    k0, k1 = k_expansions(curve.symmetrized(), p, q)
    columns = (p.tolist(), q.tolist(), k0.tolist(), k1.tolist())
    head = {
        "command": "k1scan",
        "curve_method": method,
        "slope1": _slope_echo(slope1),
        "max_norm": args.max,
    }
    _write_k1scan(args, head, columns, {"k1_min": min(columns[3]), "k1_max": max(columns[3])})
    return 0


def cmd_converge(args, parser: _Parser) -> int:
    slopes = []
    for n in args.n:
        slopes.append(_slope_or_exit(parser, n, 1, "(n, 1)"))
    slopes.sort(key=lambda s: (abs(s.p) + abs(s.q), s.p))
    reference = _unfilled_curve(args)
    rows_data = convergence_table(slopes, reference, include_unfilled=True)
    entries = []
    for row in rows_data:
        if row.failure is not None:
            entries.append({"slope1": row.label, "failure": row.failure})
            continue
        entries.append({
            "slope1": row.label,
            "a1": _c(row.curve.a1),
            "a2": _c(row.curve.a2),
            "a3": _c(row.curve.a3),
            "err_a1": row.errors[0],
            "err_a2": row.errors[1],
            "err_a3": row.errors[2],
            "involution_defect_abs": row.defect,
        })
    payload = {
        "command": "converge",
        "reference": {
            "a1": _c(reference.a1), "a2": _c(reference.a2), "a3": _c(reference.a3)
        },
        "rows": entries,
    }
    header = [
        "slope1", "a1_re", "a1_im", "a2_re", "a2_im", "a3_re", "a3_im",
        "err_a1", "err_a2", "err_a3", "defect_abs", "failure",
    ]
    rows = []
    for row in rows_data:
        if row.failure is not None:
            rows.append([row.label] + [None] * 10 + [row.failure])
        else:
            rows.append([
                row.label,
                row.curve.a1.real, row.curve.a1.imag,
                row.curve.a2.real, row.curve.a2.imag,
                row.curve.a3.real, row.curve.a3.imag,
                row.errors[0], row.errors[1], row.errors[2],
                row.defect, None,
            ])
    _write(args, payload, header, rows)
    return 0


def cmd_tube(args, parser: _Parser) -> int:
    if not math.isfinite(args.theta):
        parser.error("--theta must be finite")
    slope2 = _slope_or_exit(parser, args.p2, args.q2, "(p2, q2)")
    slope1 = _slope1(args, parser)
    if not 0.0 < args.theta <= THETA_MAX:
        parser.error(f"--theta must lie in (0, {THETA_MAX}]")
    structure = solve_cone_structure(slope1, slope2, args.theta)
    tm = measure_tube(structure)
    ev = structure.point.eigenvalues
    payload = {
        "command": "tube",
        "slope1": _slope_echo(slope1),
        "slope2": _slope_echo(slope2),
        "theta": tm.theta,
        "m2": _c(ev.m2),
        "l2": _c(ev.l2),
        "cosh2R": tm.cosh2R,
        "R": tm.R,
        "core_length": tm.t,
        "mu": tm.mu,
        "mu_hat_sq": tm.mu_hat_sq,
    }
    header = [
        "theta", "p1", "q1", "p2", "q2", "r2", "s2",
        "m2_re", "m2_im", "l2_re", "l2_im",
        "cosh2R", "R", "core_length", "mu", "mu_hat_sq",
    ]
    rows = [[
        tm.theta,
        slope1.p if slope1 else "", slope1.q if slope1 else "",
        slope2.p, slope2.q, slope2.r, slope2.s,
        ev.m2.real, ev.m2.imag, ev.l2.real, ev.l2.imag,
        tm.cosh2R, tm.R, tm.t, tm.mu, tm.mu_hat_sq,
    ]]
    _write(args, payload, header, rows)
    return 0


@contextlib.contextmanager
def _points_from(start: int):
    """Name the drawn point, not the block row, in a refusal of a block of points."""
    try:
        yield
    except ValueError as exc:
        row = getattr(exc, "row", None)
        if row is None:
            raise
        raise type(exc)(f"point {start + row}: {exc.reason}") from exc


def _verify_checks(points: int, seed: int, tol_override: float | None) -> list[dict]:
    """The invariant suite: each check runs on ``points`` random points.

    Points go through in blocks of ``_VERIFY_BLOCK`` rows, each block as one
    batch, and each check draws its points in order, block after block:
    the same draws as one ``(points, 4)`` uniform array, so a seed gives
    the same points whatever the block size. Each substep of the 8-substep
    walks from the base continues its branches from the substep before.
    """
    rng = np.random.default_rng(seed)
    checks = []

    def record(name: str, default_tol: float, worst: float) -> None:
        tol = tol_override if tol_override is not None else default_tol
        checks.append({
            "check": name,
            "points": points,
            "max_residual": worst,
            "tol": tol,
            "pass": bool(worst < tol),
        })

    def blocks(radius: float):
        """(first point index, complex offsets of both coordinates) per block."""
        for start in range(0, points, _VERIFY_BLOCK):
            off = rng.uniform(-radius, radius, size=(min(_VERIFY_BLOCK, points - start), 4))
            pair = off.view(complex)  # (re, im) of each coordinate's offset
            yield start, pair[:, 0], pair[:, 1]

    base = BASE_SHAPES.z1
    steps = [k / 8.0 for k in range(1, 9)]

    # gluing residuals on solver outputs
    worst = 0.0
    for start, du, dv in blocks(0.08):
        with _points_from(start):
            r1, r2 = residuals(solve_shapes(base + du, base + dv))
        worst = max(worst, float(np.maximum(abs(r1), abs(r2)).max()))
    record("gluing_residual", TOLERANCES.algebraic, worst)

    # holonomy group relations near the base, walking the z branch in
    # substeps; then the commutator trace identity on the same matrices
    worst_group = worst_comm = 0.0
    for start, dx, dy in blocks(0.12):
        x, y = -1.0 + dx, 2j + dy
        with _points_from(start):
            rep = None
            for s in steps:
                rep = continue_representation(-1.0 + s * (x + 1.0), 2j + s * (y - 2j), rep)
            worst_group = max(worst_group, float(np.maximum(*relation_residuals(rep)).max()))
            comm = abs(commutator_trace_minus2(rep) + rep.y)
        worst_comm = max(worst_comm, float(comm.max()))
    record("group_relations", TOLERANCES.group_relation, worst_group)
    record("commutator_trace", TOLERANCES.commutator_trace, worst_comm)

    # cusp trace relations on variety samples; both identities are singular
    # at the base point itself, so evaluate strictly off base
    worst = 0.0
    for start, du, dv in blocks(0.08):
        u, v = base + du, base + dv
        with _points_from(start):
            anchors = BranchAnchors()
            for s in steps:
                shapes = solve_shapes(base + s * (u - base), base + s * (v - base))
                ev = cusp_eigenvalues(shapes, anchors)
                anchors = ev.anchors
            lhs_m = (ev.m1 + 1.0 / ev.m1) ** 2
            lhs_l = ev.l1 + 1.0 / ev.l1
            res = np.maximum(
                abs(lhs_m - trace_identity_m1(ev.m2, ev.l2)),
                abs(lhs_l - trace_identity_l1(ev.m2, ev.l2)),
            )
        worst = max(worst, float(res.max()))
    record("cusp_trace_relations", TOLERANCES.trace_relation, worst)
    return checks


def cmd_verify(args, parser: _Parser) -> int:
    if args.points < 1:
        parser.error("--points must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    checks = _verify_checks(args.points, args.seed, args.tol)
    ok = all(c["pass"] for c in checks)
    payload = {
        "command": "verify",
        "seed": args.seed,
        "checks": checks,
        "passed": sum(1 for c in checks if c["pass"]),
        "failed": sum(1 for c in checks if not c["pass"]),
        "pass": ok,
    }
    header = ["check", "points", "max_residual", "tol", "pass"]
    rows = [
        [c["check"], c["points"], c["max_residual"], c["tol"], c["pass"]]
        for c in checks
    ]
    _write(args, payload, header, rows)
    return 0 if ok else 2


def _tolerance(text: str) -> float:
    """A --tol or $CONETUBE_TOL value: finite and positive."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite positive number")
    return value


def _add_common(sub: _Parser) -> None:
    sub.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )
    sub.add_argument("--output", default=None, help="write to a file instead of stdout")


def _add_tol(sub: _Parser, *fields: str) -> None:
    """--tol for a command whose verdict reads exactly these TOLERANCES fields."""
    sub.add_argument(
        "--tol", type=_tolerance, default=None,
        help=f"finite positive threshold (fallback: ${ENV_TOL}) that overrides "
        f"these TOLERANCES fields: {', '.join(fields)}",
    )


def _add_slope1(sub: _Parser) -> None:
    sub.add_argument("--unfilled", action="store_true",
                     help="first cusp complete (the default); excludes --p1/--q1")
    sub.add_argument("--p1", type=int, default=None, help="first-cusp slope numerator")
    sub.add_argument("--q1", type=int, default=None, help="first-cusp slope denominator")


def _add_polynomial(sub: _Parser) -> None:
    sub.add_argument(
        "--polynomial", default=None,
        help="JSON file with the unfilled eigenvalue polynomial "
        '({"terms": [{"dl": ..., "dm": ..., "re": ..., "im": ...}, ...]})',
    )


def _add_slope2(sub: _Parser) -> None:
    sub.add_argument("--p2", type=int, required=True, help="second-cusp slope numerator")
    sub.add_argument("--q2", type=int, required=True, help="second-cusp slope denominator")


@functools.cache
def build_parser() -> _Parser:
    """The CLI parser, built on first use and shared by every later call.

    Parsing reads the parser and leaves it as it was, so ``main`` reuses it.
    """
    parser = _Parser(prog="conetube", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("base", help="complete-structure report")
    _add_common(sub)
    _add_tol(sub, "algebraic", "group_relation")
    sub.set_defaults(func=cmd_base, parser=sub)

    sub = subs.add_parser("acoeffs", help="curve coefficients a1, a2, a3")
    _add_common(sub)
    _add_slope1(sub)
    _add_polynomial(sub)
    sub.set_defaults(func=cmd_acoeffs, parser=sub)

    sub = subs.add_parser("kcoeffs", help="mu_hat^2 expansion coefficients k0, k1")
    _add_common(sub)
    _add_tol(sub, "k_reference")
    _add_slope1(sub)
    _add_polynomial(sub)
    _add_slope2(sub)
    sub.set_defaults(func=cmd_kcoeffs, parser=sub)

    sub = subs.add_parser("k1scan", help="k1 over all coprime slopes up to a norm")
    _add_common(sub)
    _add_slope1(sub)
    _add_polynomial(sub)
    sub.add_argument("--max", type=int, default=10, help="norm bound |p2| + |q2|")
    sub.set_defaults(func=cmd_k1scan, parser=sub)

    sub = subs.add_parser("converge", help="filled-curve coefficient convergence table")
    _add_common(sub)
    sub.add_argument(
        "--n", type=int, nargs="+", default=[8, 16, 32, 64],
        help="first-cusp slopes (n, 1)",
    )
    _add_polynomial(sub)
    sub.set_defaults(func=cmd_converge, parser=sub)

    sub = subs.add_parser("tube", help="tube measurement at an explicit cone angle")
    _add_common(sub)
    _add_slope1(sub)
    _add_slope2(sub)
    sub.add_argument("--theta", type=float, required=True, help="cone angle, radians")
    sub.set_defaults(func=cmd_tube, parser=sub)

    sub = subs.add_parser("verify", help="structural invariant suite")
    _add_common(sub)
    _add_tol(sub, "algebraic", "group_relation", "commutator_trace", "trace_relation")
    sub.add_argument("--points", type=int, default=100, help="sample points per check")
    sub.add_argument("--seed", type=int, default=_VERIFY_SEED, help="RNG seed")
    sub.set_defaults(func=cmd_verify, parser=sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    env = os.environ.get(ENV_TOL)
    # a filled first cusp leaves kcoeffs without a verdict, so without a threshold
    verdict = hasattr(args, "tol") and not _first_cusp_filled(args)
    if verdict and args.tol is None and env is not None:
        try:
            args.tol = _tolerance(env)
        except argparse.ArgumentTypeError as exc:
            print(f"conetube: bad {ENV_TOL}: {exc}", file=sys.stderr)
            return 3
    try:
        return args.func(args, args.parser)
    except _ERRORS as exc:
        print(f"conetube: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
