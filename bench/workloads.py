"""The four benchmark workloads: seeded inputs, the timed op, and its oracle.

Every workload is a single-process closed loop: one caller, and the next op
starts when the previous one returns. Inputs come in blocks of ``BLOCK`` ops
drawn from ``numpy.random.default_rng([seed, block])``, so a block depends
only on the seed and its index, never on how fast the program ran. Within a
block the parameter that sets an op's cost is either stratified, one draw
per equal-probability stratum then shuffled (cone angle, filled-slope
norm), or a fixed mix of size classes in seeded order (scan norm, point
count). Each block thus holds the same mix of small and large ops whatever
the seed, so percentiles of op time do not swing with the seed.

A run measures a fixed number of blocks, ``Workload.blocks_for(seconds)``,
sized so that their ops take about that many seconds at the reference host
speed (``run.REFERENCE_S``). A seed thus gives the same ops on every run however fast the
host was, and the ops the program fails on today fail the same number of
times in every run of that seed.

``conetube`` is imported inside functions, never at module import, so that
``setup_s`` can time its import in a fresh interpreter.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# criterion 05 of tests/test_acceptance.py: jet pipeline vs closed form
K_TOL = 1e-8
# criterion 03: filled-curve involution defect
FILLED_DEFECT_TOL = 1e-6
# solve_cone_structure's own acceptance threshold on the filling relations
FILLING_RESIDUAL_TOL = 1e-12
# |mu_hat^2 - (k0 + k1 theta^2)| / k0 <= CONE_THETA4 theta^4 + CONE_FLOOR / theta.
# The theta^4 term is the truncation of the expansion: its worst measured
# coefficient is 0.028 over all slopes of norm <= 6 and theta in [0.01, 0.5].
# The 1/theta term is the 1e-12 filling residual seen relative to a right
# side of size theta/2; at theta = 1e-6..1e-3 the measured error stays
# 200x below it.
CONE_THETA4 = 0.05
CONE_FLOOR = 1e-12
UNFILLED_A1 = 2 + 2j
BLOCK = 25
# op_ms_p90 needs 100 ops a run, so that 10 of them lie beyond it
MIN_BLOCKS = 4


def import_program():
    """Import ``conetube`` from this checkout's ``src/`` and nowhere else.

    Raises SystemExit when the checkout holds no program, so the benchmark
    fails instead of timing some other installed copy.
    """
    init = SRC / "conetube" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: no program to measure: {init} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import conetube
    import conetube.cli  # not imported by the package itself

    if Path(conetube.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench: imported conetube from {conetube.__file__}, not {init}")
    return conetube


def unfilled_curve():
    """The shared fixture: the unfilled curve from the closed-form polynomial."""
    import conetube as ct

    curve = ct.expand_from_polynomial(ct.whitehead_a_polynomial(), -1, -1, UNFILLED_A1)
    if abs(curve.a1 - UNFILLED_A1) > 1e-12:
        raise SystemExit(f"bench: fixture curve has a1 = {curve.a1!r}, not {UNFILLED_A1}")
    return curve


# ---------------------------------------------------------------------------
# input generation


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """One uniform draw from each of n equal strata of [0, 1), shuffled."""
    u = (np.arange(n) + rng.random(n)) / n
    rng.shuffle(u)
    return u


def _coprime_slope(rng: np.random.Generator, norm: int, q_min: int) -> tuple[int, int]:
    """Coprime (p, q) with |p| + |q| = norm, q >= q_min and the sign of p random."""
    while True:
        q = int(rng.integers(q_min, norm + 1))
        p = (norm - q) * (1 if rng.random() < 0.5 else -1)
        if math.gcd(p, q) == 1:
            return p, q


def _norm(u: float, lo: int, hi: int) -> int:
    """The integer of [lo, hi] at quantile u of the uniform distribution."""
    return lo + int(u * (hi - lo + 1))


# k1scan costs ~0.65 ms per slope and a scan to norm M has ~0.61 M^2 slopes,
# so one large M would move a percentile by itself. Every block therefore
# runs a fixed mix of size classes, and the seed sets its order. The median
# op falls in the middle of the medium class and the 90th percentile inside
# the large one, so each percentile reads many ops of one size rather than
# the edge between two sizes.
KSCAN_MIX = (4,) * 8 + (13,) * 9 + (20,) * 2 + (30,) * 5 + (60,)
# verify costs ~0.45 ms per point; its point counts follow the same pattern,
# while the seed draws each op's own --seed
VERIFY_MIX = (25,) * 8 + (100,) * 9 + (150,) * 2 + (200,) * 5 + (400,)
CONE_UNFILLED_SHARE = 0.4


def kscan_block(rng: np.random.Generator) -> list[int]:
    return [KSCAN_MIX[i] for i in rng.permutation(BLOCK)]


def cone_block(rng: np.random.Generator) -> list[tuple]:
    # theta, the filled slope1 norms and the slope2 norms are each stratified
    filled = BLOCK - round(CONE_UNFILLED_SHARE * BLOCK)
    slopes1 = [_coprime_slope(rng, _norm(u, 5, 60), 0) for u in _strata(rng, filled)]
    slopes1 += [None] * (BLOCK - filled)
    slopes1 = [slopes1[i] for i in rng.permutation(BLOCK)]
    slopes2 = [_coprime_slope(rng, _norm(u, 1, 6), 0) for u in _strata(rng, BLOCK)]
    thetas = 0.5 * (1.0 - _strata(rng, BLOCK))  # (0, 0.5]
    return [(s1, s2, float(t)) for s1, s2, t in zip(slopes1, slopes2, thetas)]


def fill_block(rng: np.random.Generator) -> list[tuple[int, int]]:
    # the filled base walk and the samples get cheaper as the norm grows
    return [_coprime_slope(rng, _norm(u, 8, 80), 1) for u in _strata(rng, BLOCK)]


def verify_block(rng: np.random.Generator) -> list[tuple[int, int]]:
    return [(VERIFY_MIX[i], int(rng.integers(0, 2**31))) for i in rng.permutation(BLOCK)]


# ---------------------------------------------------------------------------
# ops and oracles
#
# An op returns its raw output; the oracle returns None when the output is
# right, "failed: <reason>" when the program refused with a reason of its
# own (a verify check that did not pass), or "wrong: <reason>" when the
# output is wrong. A raised ValueError (every conetube error derives from
# it) is a failure with a reason; any other exception is a crash.


@dataclasses.dataclass
class Context:
    """Per-run state handed to every op and oracle."""

    out_dir: Path
    tracer: Any = None  # set while a traced op runs
    k1_gap: float = 0.0  # worst |k1 - k1_ref| seen by the kscan oracle

    def output_file(self, name: str) -> Path:
        return self.out_dir / f"{name}.json"


def cli_call(argv: list[str]) -> tuple[int, str]:
    from conetube import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 3
    return rc, err.getvalue().strip()


def kscan_op(max_norm: int, ctx: Context):
    out = ctx.output_file("kscan")
    return cli_call(["k1scan", "--max", str(max_norm), "--output", str(out)]) + (out,)


@functools.lru_cache(maxsize=None)
def expected_slopes(max_norm: int) -> frozenset[tuple[int, int]]:
    """Coprime (p, q), one per slope (q > 0, or (1, 0)), with |p| + q <= max_norm."""
    out = {(1, 0)}
    for q in range(1, max_norm + 1):
        for p in range(q - max_norm, max_norm - q + 1):
            if math.gcd(p, q) == 1:
                out.add((p, q))
    return frozenset(out)


def kscan_check(max_norm: int, result, ctx: Context) -> str | None:
    import conetube as ct

    rc, err, path = result
    if rc != 0:
        return f"failed: exit {rc}: {err}"
    payload = json.loads(Path(path).read_text())
    entries = payload["entries"]
    got = [(e["p2"], e["q2"]) for e in entries]
    if len(got) != len(set(got)) or set(got) != expected_slopes(max_norm):
        return f"wrong: slope set for --max {max_norm} has {len(got)} entries"
    for e in entries:
        ref = ct.whitehead_k_reference(ct.Slope.make(e["p2"], e["q2"]))
        ctx.k1_gap = max(ctx.k1_gap, abs(e["k1"] - ref.k1))
        if not (abs(e["k0"] - ref.k0) < K_TOL and abs(e["k1"] - ref.k1) < K_TOL):
            return f"wrong: ({e['p2']}, {e['q2']}) k = ({e['k0']!r}, {e['k1']!r}), reference ({ref.k0!r}, {ref.k1!r})"
    k1 = [e["k1"] for e in entries]
    if payload["k1_min"] != min(k1) or payload["k1_max"] != max(k1):
        return "wrong: k1_min/k1_max disagree with the entries"
    return None


def cone_op(op: tuple, ctx: Context):
    import conetube as ct

    slope1, slope2, theta = op
    s1 = ct.Slope.make(*slope1) if slope1 is not None else None
    structure = ct.solve_cone_structure(s1, ct.Slope.make(*slope2), theta)
    return structure, ct.measure_tube(structure)


def cone_check(op: tuple, result, ctx: Context) -> str | None:
    import conetube as ct

    slope1, slope2, theta = op
    structure, tm = result
    residual = max(abs(r) for r in structure.filling_residuals())
    if not residual <= FILLING_RESIDUAL_TOL:
        return f"wrong: filling residual {residual:.3e}"
    if tm.theta != theta:
        return f"wrong: measured theta {tm.theta!r} for input {theta!r}"
    try:
        tm.check()
    except ValueError as exc:
        return f"wrong: {exc}"
    if slope1 is None:
        ref = ct.whitehead_k_reference(ct.Slope.make(*slope2))
        rel = abs(tm.mu_hat_sq - (ref.k0 + ref.k1 * theta**2)) / ref.k0
        if not rel <= CONE_THETA4 * theta**4 + CONE_FLOOR / theta:
            return f"wrong: mu_hat^2 off k0 + k1 theta^2 by {rel:.3e} relative"
    return None


def fill_op(slope1: tuple[int, int], ctx: Context):
    import conetube as ct

    sampler = ct.filled_curve_sampler(ct.Slope.make(*slope1))
    if ctx.tracer is not None:  # the sampler's Newton solves are surgery's work
        sampler = ctx.tracer.wrap(sampler, "surgery.sampler")
    return ct.expand_from_samples(sampler, -1, -1)


def fill_check(slope1: tuple[int, int], curve, ctx: Context) -> str | None:
    defect = abs(curve.involution_defect())
    if not defect < FILLED_DEFECT_TOL:
        return f"wrong: involution defect {defect:.3e}"
    return None


VERIFY_CHECKS = ("gluing_residual", "group_relations", "commutator_trace", "cusp_trace_relations")


def verify_op(op: tuple[int, int], ctx: Context):
    points, seed = op
    out = ctx.output_file("verify")
    return cli_call(["verify", "--points", str(points), "--seed", str(seed), "--output", str(out)]) + (out,)


def verify_check(op: tuple[int, int], result, ctx: Context) -> str | None:
    points, seed = op
    rc, err, path = result
    if rc not in (0, 2):
        return f"failed: exit {rc}: {err}"
    payload = json.loads(Path(path).read_text())
    checks = payload["checks"]
    if tuple(c["check"] for c in checks) != VERIFY_CHECKS:
        return f"wrong: checks {[c['check'] for c in checks]}"
    for c in checks:
        if c["points"] != points or c["pass"] != (c["max_residual"] < c["tol"]):
            return f"wrong: inconsistent check record {c}"
    passed = sum(c["pass"] for c in checks)
    if (payload["passed"], payload["failed"]) != (passed, 4 - passed) or payload["pass"] != (passed == 4):
        return "wrong: pass counts disagree with the check records"
    if rc != (0 if passed == 4 else 2):
        return f"wrong: exit {rc} with {passed}/4 checks passing"
    if passed < 4:
        bad = [f"{c['check']} {c['max_residual']:.3e} > tol {c['tol']:.0e}" for c in checks if not c["pass"]]
        return "failed: " + "; ".join(bad)
    return None


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    item: str  # what one item is
    make_block: Callable[[np.random.Generator], list]
    execute: Callable[[Any, Context], Any]
    check: Callable[[Any, Any, Context], str | None]
    items: Callable[[Any], int]
    block_seconds: float  # op time of one block at run.REFERENCE_S, the reference host speed

    def blocks_for(self, seconds: float) -> int:
        """The fixed number of blocks a run of `seconds` measures (MIN_BLOCKS at least)."""
        return max(MIN_BLOCKS, round(seconds / self.block_seconds))

    def block(self, seed: int, index: int) -> list:
        return self.make_block(np.random.default_rng([seed, index]))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "kscan",
            "slope scans through the CLI: jets and tube.k_expansion_closed_form do the work, gluing none",
            "slope",
            kscan_block,
            kscan_op,
            kscan_check,
            lambda m: len(expected_slopes(m)),
            5.2,
        ),
        Workload(
            "cone",
            "cone structures: gluing plus the surgery Newton and theta continuation do the work, jet arithmetic none",
            "structure",
            cone_block,
            cone_op,
            cone_check,
            lambda op: 1,
            0.82,
        ),
        Workload(
            "fill",
            "filled curves: gluing and a pinned-meridian Newton per sample, no theta continuation; the stencil path",
            "curve",
            fill_block,
            fill_op,
            fill_check,
            lambda op: 1,
            0.51,
        ),
        Workload(
            "verify",
            "the invariant suite: the only workload that runs holonomy; its gluing solves are cold, not probes",
            "point",
            verify_block,
            verify_op,
            verify_check,
            lambda op: op[0],
            1.87,
        ),
    )
}


def fixtures(name: str, seed: int) -> tuple[Workload, list, Any]:
    """Set-up a run pays before timing: the first block of inputs and the curve."""
    workload = WORKLOADS[name]
    return workload, workload.block(seed, 0), unfilled_curve()
