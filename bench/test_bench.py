"""Tests of the benchmark itself: inputs, names, oracles and tracing.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as W
from tracing import LAYERS, Tracer

ct = W.import_program()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((W.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_inputs_follow_the_seed(name):
    w = W.WORKLOADS[name]
    for index in range(3):
        assert w.block(7, index) == w.block(7, index)
        assert w.block(7, index) != w.block(8, index)
    assert w.block(7, 0) != w.block(7, 1)


def test_names_and_units_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]), m


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in W.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        row[:3] for row in run.PER_LAYER
    ]


def test_cone_inputs_cover_what_tube_accepts():
    ops = [op for b in range(40) for op in W.WORKLOADS["cone"].block(3, b)]
    thetas = [theta for _, _, theta in ops]
    assert all(0.0 < t <= ct.surgery.THETA_MAX for t in thetas)
    assert max(thetas) > ct.surgery.THETA_MAX - 0.01
    assert min(thetas) < 0.01
    norms1 = [abs(p) + abs(q) for s1, _, _ in ops if s1 is not None for p, q in [s1]]
    assert min(norms1) == 5 and max(norms1) == 60
    assert any(n < ct.surgery.MIN_FILLED_NORM for n in norms1)
    assert {abs(p) + abs(q) for _, (p, q), _ in ops} == set(range(1, 7))
    assert sum(s1 is None for s1, _, _ in ops) == round(W.CONE_UNFILLED_SHARE * len(ops))
    for s1, s2, _ in ops:
        for p, q in filter(None, (s1, s2)):
            assert math.gcd(p, q) == 1


def _rewrite_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def _bump_k1(payload):
    payload["entries"][0]["k1"] += 1e-6


def _claim_pass(payload):
    payload["checks"][0]["max_residual"] = 1.0


CORRUPTIONS = {
    # workload: (input, corrupt the op's output in place or return a new one)
    "kscan": (3, lambda out: _rewrite_json(out[2], _bump_k1) or out),
    "cone": (
        (None, (1, 0), 0.1),
        lambda out: (out[0], dataclasses.replace(out[1], mu_hat_sq=out[1].mu_hat_sq * (1 + 1e-6))),
    ),
    "fill": ((40, 1), lambda curve: dataclasses.replace(curve, a2=curve.a2 + 1e-3)),
    "verify": ((20, 5), lambda out: _rewrite_json(out[2], _claim_pass) or out),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_output_counts_as_failed(name, tmp_path):
    op, corrupt = CORRUPTIONS[name]
    w = W.WORKLOADS[name]
    ctx = W.Context(tmp_path)
    clean = run.Tally()
    run.run_op(w, op, ctx, clean)
    assert (clean.ops, clean.failed) == (1, 0), clean.failures

    broken = dataclasses.replace(w, execute=lambda op, ctx: corrupt(w.execute(op, ctx)))
    tally = run.Tally()
    run.run_op(broken, op, ctx, tally)
    assert (tally.ops, tally.failed, tally.wrong, tally.items_ok) == (1, 1, 1, 0), tally.failures
    assert len(tally.op_s) == 1


def test_raised_error_is_a_failure_with_a_reason(tmp_path):
    # a cone input the chart radius refuses today
    tally = run.Tally()
    run.run_op(W.WORKLOADS["cone"], ((5, 1), (1, 0), 0.26), W.Context(tmp_path), tally)
    assert (tally.failed, tally.refused, tally.wrong) == (1, 1, 0)
    assert "chart" in tally.failures[0]


def test_a_run_measures_a_fixed_number_of_blocks(tmp_path):
    # the ops a run attempts depend on --seconds alone, never on the host's speed,
    # so one seed fails the same number of times in every run
    cone = W.WORKLOADS["cone"]
    assert cone.blocks_for(20) == round(20 / cone.block_seconds)
    assert min(w.blocks_for(1e-3) for w in W.WORKLOADS.values()) * W.BLOCK >= 100
    seen = []
    stub = dataclasses.replace(cone, execute=lambda op, ctx: seen.append(op), check=lambda *_: None)
    first = stub.block(11, 0)
    tally = run.measure(stub, 11, 3, first, W.Context(tmp_path), lambda index: None)
    assert tally.ops == len(tally.scaled_s) == 3 * W.BLOCK
    assert seen == first + stub.block(11, 1) + stub.block(11, 2)


def test_a_uniform_host_slowdown_cancels():
    # 40 one-op segments; from segment 20 on, the host runs at half speed
    op_s = [0.01] * 20 + [0.02] * 20
    refs = [run.REFERENCE_S] * 21 + [2 * run.REFERENCE_S] * 20
    scaled = run.scale_to_reference(op_s, refs, list(range(41)))
    far = run.SMOOTH + 1  # segments whose window sees one host speed only
    assert scaled[:20 - far] == pytest.approx([0.01] * (20 - far))
    assert scaled[20 + far:] == pytest.approx([0.01] * (20 - far))


def test_self_times_add_up_to_the_traced_spans(tmp_path):
    tracer = Tracer()
    ctx = W.Context(tmp_path, tracer=tracer)
    originals = [getattr(owner, attr) for owner, attr, *_ in tracer._patches]
    tally = run.Tally()
    run.run_op(W.WORKLOADS["fill"], (40, 1), ctx, tally, tracer)
    run.run_op(W.WORKLOADS["kscan"], 4, ctx, tally, tracer)
    assert tally.failed == 0
    assert [getattr(owner, attr) for owner, attr, *_ in tracer._patches] == originals
    a = tracer.arrays()
    roots = a["parent"] < 0
    self_s, calls = tracer.layer_totals()
    assert math.isclose(self_s.sum(), (a["end"] - a["start"])[roots].sum(), rel_tol=1e-9)
    assert (self_s >= -1e-9).all() and calls.sum() == a["name"].size
    assert set(a["op"]) == {0, 1}
    for layer in ("jets", "gluing", "curves", "surgery", "tube", "cli"):
        assert calls[LAYERS.index(layer)] > 0, layer
    assert tracer.durations("surgery.sampler").size > 0
    assert tracer.jets_built > 0


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(W.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(W.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "cone", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
