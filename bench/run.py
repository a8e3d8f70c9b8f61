"""Benchmark of conetube: four seeded closed-loop workloads, checked op by op.

Run from the root of a checkout, with nothing installed:

    python3 bench/run.py --workload cone --seed 1 --seconds 18 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The program is imported from ``src/`` of the
checkout, and the run exits non-zero without a result if it is not there.

Timing. Ops run one after another in a fixed number of whole blocks of
inputs, sized so that they take about ``--seconds`` at the reference host
speed (see ``workloads.py`` and ``REFERENCE_S``): the same seed runs the
same ops, so ``attempted`` and ``failed`` do not depend on the host's
speed (unless the host runs ``MAX_SLOWDOWN`` times slower than the
reference, when the run stops early to end in time). An op's
time runs from the call to its result or its error; checking the output is
outside it. ``setup_s`` is the median over ``SETUP_PROBES`` fresh
interpreters, started between blocks, of the wall time to import conetube
and build the workload's fixtures once numpy is imported (see
``SetupProbes``). The reported op times are scaled to a reference host
speed (see ``CALIBRATE_EVERY``); the wall-clock figures are printed beside
them. A traced run alternates traced and untraced blocks, so its
``tracing_overhead_frac`` compares the two under the same host conditions;
its per-layer times are wall clock.

Outcomes. An op fails when it raises, when the program reports one of its
own checks failing, or when the oracle rejects its output. ``failed`` counts
all three; ``correct`` is false when an output was wrong or the program
raised something other than its own ValueError-derived errors.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads as W

END_TO_END = (
    ("items_per_s", "items/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

# the command-line examples of README.md, each timed in a fresh process
README_EXAMPLES = {
    "cli.base_s": ["base"],
    "cli.acoeffs_s": ["acoeffs"],
    "cli.acoeffs_filled_s": ["acoeffs", "--p1", "40", "--q1", "1"],
    "cli.kcoeffs_s": ["kcoeffs", "--p2", "1", "--q2", "1"],
    "cli.k1scan_s": ["k1scan", "--max", "8"],
    "cli.converge_s": ["converge", "--n", "8", "16", "32", "64"],
    "cli.tube_s": ["tube", "--p2", "1", "--q2", "0", "--theta", "0.05"],
    "cli.verify_s": ["verify", "--points", "100"],
}

# (name, unit, better, the end-to-end metric it should move)
PER_LAYER = (
    ("jets.built_per_item", "count", "lower", "kscan items_per_s"),
    ("jets.self_ms_per_item", "ms", "lower", "kscan items_per_s"),
    ("jets.calls_per_item", "count", "lower", "kscan items_per_s"),
    ("jets.branch_refusal_frac", "ratio", "lower", "cone failed/attempted"),
    ("gluing.solves_per_item", "count", "lower", "cone op_ms_p50, op_ms_p90; fill, verify items_per_s"),
    ("gluing.solve_us_p50", "us", "lower", "cone op_ms_p50, op_ms_p90; fill, verify items_per_s"),
    ("gluing.self_ms_per_item", "ms", "lower", "cone op_ms_p50, op_ms_p90; fill, verify items_per_s"),
    ("gluing.ok_frac", "ratio", "higher", "cone op_ms_p50, op_ms_p90; fill, verify items_per_s"),
    ("gluing.eigen_calls_per_item", "count", "lower", "cone op_ms_p50, op_ms_p90; fill, verify items_per_s"),
    ("gluing.solve_shapes_us", "us", "lower", "cone op_ms_p50; fill, verify items_per_s"),
    ("holonomy.calls_per_item", "count", "lower", "verify items_per_s"),
    ("holonomy.self_ms_per_item", "ms", "lower", "verify items_per_s"),
    ("curves.samples_per_item", "count", "lower", "fill items_per_s"),
    ("curves.self_ms_per_item", "ms", "lower", "fill items_per_s"),
    ("curves.poly_expand_ms", "ms", "lower", "setup_s"),
    ("surgery.self_ms_per_item", "ms", "lower", "cone op_ms_p90"),
    ("surgery.base_walk_ms_p50", "ms", "lower", "fill items_per_s"),
    ("tube.self_ms_per_item", "ms", "lower", "kscan items_per_s"),
    ("tube.kexp_calls_per_item", "count", "lower", "kscan items_per_s"),
    ("tube.kexp_ms_per_slope", "ms", "lower", "kscan items_per_s"),
    ("tube.k1_gap_max", "abs_err", "lower", "none: precision, not gated"),
    ("cli.self_ms_per_item", "ms", "lower", "kscan, verify items_per_s"),
    *((name, "s", "lower", "setup_s") for name in README_EXAMPLES),
    ("cli.tube_theta05_ms", "ms", "lower", "cone op_ms_p90"),
    ("cli.verify_1000_s", "s", "lower", "verify items_per_s"),
    ("tracing_overhead_frac", "ratio", "lower", "none"),
)

SETUP_PROBES = 13
TRACE_SECONDS = 4.0
# a run stops after the block in which its op time passes this many times
# the time its blocks take at the reference speed
MAX_SLOWDOWN = 5.0
OUT = W.ROOT / ".bench_out"

# Host speed. The CPU this benchmark shares drifts by 10-50% over tens of
# seconds with other tenants' load, which no run length averages away: the
# means of 20 s to 60 s runs of one fixed op spread by 8-11% (sd) alike. So
# every CALIBRATE_EVERY seconds of op time the run times a fixed pure-Python
# loop that calls no conetube code, and reports op times scaled to the speed
# at which that loop takes REFERENCE_S (see scale_to_reference). A slowdown
# of the host slows both and cancels; a change to the program moves only
# the ops. Applied to 0.5 s windows of repeated cone and k-expansion ops,
# this brought the spread of 15 s means from 7-14% to 2% or less.
CALIBRATE_EVERY = 0.5
SMOOTH = 4  # calibrations each side that set one segment's scale
REFERENCE_S = 0.018  # the loop's median time on the host the bounds were set on


@dataclasses.dataclass(frozen=True)
class _Pair:
    a: complex
    b: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", complex(self.a))


def _reference_loop() -> None:
    # complex arithmetic and dict stores track cone-like ops best; small
    # frozen dataclasses and tuples track jet-heavy ops best; the sum, both
    acc, table = 0j, {}
    for i in range(12000):
        z = complex(i % 7, i % 3)
        acc = acc * 0.5 + z / (1.0 + abs(z))
        table[i & 63] = (z, acc)
    p, keep = _Pair(1j, 1.0), []
    for i in range(3000):
        z = complex(i % 7 + 1, i % 3)
        p = _Pair(p.b, p.a * 0.5 + cmath.sqrt(z) / (1.0 + abs(z)))
        keep.append(tuple(c * z for c in (p.a, p.b, z)))
        if len(keep) > 2000:
            keep.clear()


def reference_seconds() -> float:
    """Median of three timings of the reference loop, with the collector off."""
    times = []
    gc.disable()
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            _reference_loop()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


@dataclasses.dataclass
class Tally:
    """Outcomes and op times of one set of ops."""

    ops: int = 0
    refused: int = 0  # the program failed with a reason of its own
    wrong: int = 0  # the oracle rejected the output
    crashed: int = 0  # an exception that is not one of the program's errors
    items: int = 0
    items_ok: int = 0
    op_s: list[float] = dataclasses.field(default_factory=list)  # wall time
    scaled_s: list[float] = dataclasses.field(default_factory=list)  # at REFERENCE_S
    failures: list[str] = dataclasses.field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.refused + self.wrong + self.crashed

    @property
    def seconds(self) -> float:
        return sum(self.op_s)


def run_op(workload: W.Workload, op, ctx: W.Context, tally: Tally, tracer=None) -> None:
    if tracer is not None:
        tracer.op_id += 1
        tracer.activate()
    t0 = time.perf_counter()
    try:
        result = workload.execute(op, ctx)
        verdict = None
    except ValueError as exc:  # every conetube error is a ValueError
        verdict = f"failed: {type(exc).__name__}: {exc}"
    except Exception as exc:  # a crash is recorded and the run goes on
        verdict = f"crashed: {type(exc).__name__}: {exc}\n{traceback.format_exc()}"
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.deactivate()
    if verdict is None:
        verdict = workload.check(op, result, ctx)
    n = workload.items(op)
    tally.ops += 1
    tally.items += n
    tally.op_s.append(dt)
    if verdict is None:
        tally.items_ok += n
        return
    field = {"failed": "refused", "wrong": "wrong", "crashed": "crashed"}[verdict.split(":", 1)[0]]
    setattr(tally, field, getattr(tally, field) + 1)
    tally.failures.append(f"{workload.name} {op!r}: {verdict}")


def blocks(workload: W.Workload, seed: int, first_block: list):
    yield first_block
    index = 1
    while True:
        yield workload.block(seed, index)
        index += 1


def measure(workload: W.Workload, seed: int, n_blocks: int, first_block: list,
            ctx: W.Context, probes: "SetupProbes") -> Tally:
    """`n_blocks` whole blocks, with host-speed calibration."""
    tally = Tally()
    warm = time.perf_counter() + 0.5  # the first loops after a pause run up to 2x slow
    while time.perf_counter() < warm:
        reference_seconds()
    refs, bounds, pending = [reference_seconds()], [0], 0.0
    cap = MAX_SLOWDOWN * n_blocks * workload.block_seconds
    for index, block in zip(range(n_blocks), blocks(workload, seed, first_block)):
        for op in block:
            run_op(workload, op, ctx, tally)
            pending += tally.op_s[-1]
            if pending >= CALIBRATE_EVERY:
                refs.append(reference_seconds())
                bounds.append(tally.ops)
                pending = 0.0
        probes(index)
        if tally.seconds > cap:
            print(f"  stopped after {index + 1} of {n_blocks} blocks: the host ran over "
                  f"{MAX_SLOWDOWN:g}x slower than the reference")
            break
    if bounds[-1] < tally.ops:
        refs.append(reference_seconds())
        bounds.append(tally.ops)
    tally.scaled_s = scale_to_reference(tally.op_s, refs, bounds)
    return tally


def scale_to_reference(op_s: list[float], refs: list[float], bounds: list[int]) -> list[float]:
    """Op times at the reference host speed.

    The ops between calibrations j and j + 1 (``op_s[bounds[j]:bounds[j + 1]]``)
    are scaled by REFERENCE_S over the median of the calibrations within
    SMOOTH of them: one calibration is too noisy on its own. The loop runs
    up to 40% fast for a few seconds at a time while the ops around it do
    not; a mean follows those spells, the median does not. Over 36-op runs
    of one kscan op it gave a quartile spread of 1.8%, against 5.3% for the
    mean.
    """
    out = []
    for j in range(len(bounds) - 1):
        scale = REFERENCE_S / statistics.median(refs[max(0, j - SMOOTH):j + SMOOTH + 2])
        out += [t * scale for t in op_s[bounds[j]:bounds[j + 1]]]
    return out


def measure_traced(workload: W.Workload, seed: int, n_blocks: int, first_block: list,
                   ctx: W.Context, tracer) -> tuple[Tally, Tally]:
    """(untraced, traced) tallies of `n_blocks` whole blocks.

    Even blocks are traced, as many as make TRACE_SECONDS of op time, which
    bounds the spans kept in memory; every other block is not.
    """
    plain, traced = Tally(), Tally()
    n_traced = max(1, round(TRACE_SECONDS / workload.block_seconds))
    for index, block in zip(range(n_blocks), blocks(workload, seed, first_block)):
        on = index % 2 == 0 and index < 2 * n_traced
        ctx.tracer = tracer if on else None
        for op in block:
            run_op(workload, op, ctx, traced if on else plain, tracer if on else None)
    ctx.tracer = None
    return plain, traced


# ---------------------------------------------------------------------------
# set-up time


class SetupProbes:
    """Set-up samples spread over the timed phase, one after a block.

    Each sample is a fresh interpreter's import of conetube plus the
    workload's fixtures, in wall-clock seconds, after the interpreter has
    imported numpy (see ``setup_probe.py``). numpy's import is left out:
    no change to conetube can alter it, and on the host the bounds were set
    on it flips between about 0.10 s and 0.17 s for tens of minutes at a
    time while the rest of set-up holds steady, which moved the median of
    whole set-up by 25% between two sets of runs. Neither scaling by
    numpy's import nor by the op times' reference loop tracks the rest.
    """

    def __init__(self, workload: str, seed: int, n_blocks: int) -> None:
        script = str(Path(__file__).resolve().parent / "setup_probe.py")
        self.argv = [sys.executable, script, workload, str(seed)]
        self.every = n_blocks / SETUP_PROBES
        self.wall: list[float] = []
        self.numpy: list[float] = []  # numpy's import, before and outside wall

    def probe(self) -> None:
        proc = subprocess.run(self.argv, cwd=W.ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed:\n{proc.stderr}")
        setup, numpy_s = map(float, proc.stdout.strip().splitlines()[-1].split())
        self.wall.append(setup)
        self.numpy.append(numpy_s)

    def __call__(self, block_index: int) -> None:
        if len(self.wall) < SETUP_PROBES and block_index >= len(self.wall) * self.every:
            self.probe()

    def finish(self) -> None:
        while len(self.wall) < SETUP_PROBES:
            self.probe()


# ---------------------------------------------------------------------------
# per-layer probes of a traced run


def cli_in_fresh_process(args: list[str]) -> tuple[float, str | None]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(W.SRC) + (":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = OUT / "tmp" / "example.out"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "conetube.cli", *args, "--output", str(out)],
        cwd=W.ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    dt = time.perf_counter() - t0
    return dt, None if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr.strip()}"


def baselines(ctx: W.Context, errors: list[str]) -> dict[str, float]:
    """Untraced timings of the layer entry points named in ROADMAP aim 1."""
    import conetube as ct

    rng = np.random.default_rng(20250819)
    base = ct.BASE_SHAPES.z1
    times = []
    for off in rng.uniform(-0.08, 0.08, size=(1000, 4)):
        u, v = base + complex(off[0], off[1]), base + complex(off[2], off[3])
        t0 = time.perf_counter()
        ct.solve_shapes(u, v)
        times.append(time.perf_counter() - t0)
    out = {"gluing.solve_shapes_us": statistics.median(times) * 1e6}

    curve = W.unfilled_curve().symmetrized()
    slopes = [ct.Slope.make(p, q) for p, q in sorted(W.expected_slopes(30))]
    per_slope = []
    for _ in range(3):
        t0 = time.perf_counter()
        for s in slopes:
            ct.k_expansion_closed_form(curve, s)
        per_slope.append((time.perf_counter() - t0) / len(slopes))
    out["tube.kexp_ms_per_slope"] = statistics.median(per_slope) * 1e3

    poly = []
    for _ in range(20):
        t0 = time.perf_counter()
        W.unfilled_curve()
        poly.append(time.perf_counter() - t0)
    out["curves.poly_expand_ms"] = statistics.median(poly) * 1e3

    tmp = str(ctx.output_file("baseline"))
    for name, argv, scale in (
        ("cli.tube_theta05_ms", ["tube", "--p2", "1", "--q2", "0", "--theta", "0.5"], 1e3),
        ("cli.verify_1000_s", ["verify", "--points", "1000"], 1.0),
    ):
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            rc, err = W.cli_call(argv + ["--output", tmp])
            runs.append(time.perf_counter() - t0)
            if rc != 0:
                errors.append(f"{' '.join(argv)}: exit {rc}: {err}")
        out[name] = statistics.median(runs) * scale
    return out


def per_layer(tracer, traced: Tally, plain: Tally, ctx: W.Context, extras: dict) -> dict[str, float]:
    from tracing import LAYERS

    items = traced.items
    self_s, calls = tracer.layer_totals()
    layer = {name: (self_s[i], calls[i]) for i, name in enumerate(LAYERS)}

    def count(label: str) -> int:
        return tracer.durations(label).size

    def median_of(label: str, scale: float) -> float:
        d = tracer.durations(label)
        return float(np.median(d)) * scale if d.size else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    branch_calls = count("jets.continue_sqrt") + count("jets.continue_log")
    branch_refused = tracer.raised_in("jets.continue_sqrt") + tracer.raised_in("jets.continue_log")
    solves = count("gluing.solve_shapes")
    m = {
        "jets.built_per_item": tracer.jets_built / items,
        "jets.calls_per_item": layer["jets"][1] / items,
        "jets.branch_refusal_frac": ratio(branch_refused, branch_calls),
        "gluing.solves_per_item": solves / items,
        "gluing.solve_us_p50": median_of("gluing.solve_shapes", 1e6),
        "gluing.ok_frac": ratio(solves - tracer.raised_in("gluing.solve_shapes"), solves),
        "gluing.eigen_calls_per_item": count("gluing.cusp_eigenvalues") / items,
        "holonomy.calls_per_item": layer["holonomy"][1] / items,
        "curves.samples_per_item": count("surgery.sampler") / items,
        "surgery.base_walk_ms_p50": median_of("surgery.filled_curve_sampler", 1e3),
        "tube.kexp_calls_per_item": count("tube.k_expansion_closed_form") / items,
        "tube.k1_gap_max": ctx.k1_gap,
        "tracing_overhead_frac": 1.0 - (traced.items / traced.seconds) / (plain.items / plain.seconds),
    }
    for name in LAYERS:
        m[f"{name}.self_ms_per_item"] = 1e3 * layer[name][0] / items
    m.update(extras)
    counts = (f"    counts: {branch_refused}/{branch_calls} branch refusals, "
              f"{solves - tracer.raised_in('gluing.solve_shapes')}/{solves} solves ok, "
              f"{traced.items} traced items, {plain.items} untraced items")
    print(counts)
    return {name: m[name] for name, *_ in PER_LAYER}


# ---------------------------------------------------------------------------


def end_to_end(tally: Tally, op_s: list[float], setup_s: list[float], rss_mb: float) -> dict[str, float]:
    op_ms = np.array(op_s) * 1e3
    return {
        "items_per_s": tally.items_ok / sum(op_s),
        "op_ms_p50": float(np.percentile(op_ms, 50)),
        "op_ms_p90": float(np.percentile(op_ms, 90)),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": rss_mb,
    }


def report(workload: W.Workload, tallies: list[Tally]) -> None:
    t = Tally()
    for part in tallies:
        for f in dataclasses.fields(Tally):
            setattr(t, f.name, getattr(t, f.name) + getattr(part, f.name))
    print(f"  ops {t.ops}: {t.ops - t.failed} ok, {t.refused} failed with a reason, "
          f"{t.wrong} wrong output, {t.crashed} crashed")
    print(f"  failed_frac {t.failed}/{t.ops} = {t.failed / t.ops:.4g}; "
          f"items ({workload.item}) {t.items_ok}/{t.items} ok")
    for line in t.failures[:25]:
        print(f"  FAIL {line}")
    if len(t.failures) > 25:
        print(f"  ... and {len(t.failures) - 25} more failures")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(W.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    W.import_program()  # also writes the bytecode the set-up probes then reuse
    workload, first_block, _ = W.fixtures(args.workload, args.seed)
    ctx = W.Context(OUT / "tmp")
    ctx.out_dir.mkdir(parents=True, exist_ok=True)
    run_op(workload, first_block[0], ctx, Tally())  # warm-up, not counted

    errors: list[str] = []  # probes outside the workload that did not exit 0
    n_blocks = workload.blocks_for(args.seconds)
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}: "
          f"{n_blocks} blocks of {W.BLOCK} ops")
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        plain, traced = measure_traced(workload, args.seed, n_blocks, first_block, ctx, tracer)
        report(workload, [plain, traced])
        extras = baselines(ctx, errors)
        for name, example in README_EXAMPLES.items():
            extras[name], error = cli_in_fresh_process(example)
            if error:
                errors.append(f"{' '.join(example)}: {error}")
        for error in errors:
            print(f"  FAIL {error}")
        metrics = per_layer(tracer, traced, plain, ctx, extras)
        tracer.save(OUT / f"spans-{workload.name}.npz")
        print(f"  {tracer.end.buffer_info()[1]} spans written to {OUT.name}/spans-{workload.name}.npz; "
              f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.0f} MiB")
        units = {name: unit for name, unit, *_ in PER_LAYER}
        for name, _, _, moves in PER_LAYER:
            print(f"  {name:28s} {metrics[name]:14.6g} {units[name]:6s}  moves: {moves}")
        tallies = [plain, traced]
    else:
        probes = SetupProbes(args.workload, args.seed, n_blocks)
        plain = measure(workload, args.seed, n_blocks, first_block, ctx, probes)
        probes.finish()
        report(workload, [plain])
        print(f"  set-up probes: median {statistics.median(probes.wall):.4f} s after numpy's "
              f"import, which took {statistics.median(probes.numpy):.4f} s more")
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        raw, metrics = (end_to_end(plain, plain.op_s, probes.wall, rss),
                        end_to_end(plain, plain.scaled_s, probes.wall, rss))
        units = {name: unit for name, unit, _ in END_TO_END}
        p90 = metrics["op_ms_p90"] / 1e3
        print(f"  {plain.ops} ops, {sum(t >= p90 for t in plain.scaled_s)} at or above op_ms_p90; "
              f"the host ran at {sum(plain.scaled_s) / sum(plain.op_s):.3f}x the reference speed")
        print(f"  {'metric':28s} {'at reference':>14s} {'wall clock':>14s}")
        for name, value in metrics.items():
            print(f"  {name:28s} {value:14.6g} {raw[name]:14.6g} {units[name]}")
        tallies = [plain]
    result = {
        "correct": not errors and all(t.wrong == 0 and t.crashed == 0 for t in tallies),
        "attempted": sum(t.ops for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
