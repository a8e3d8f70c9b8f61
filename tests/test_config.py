"""The threshold table: frozen, and the only place a threshold is written."""

from __future__ import annotations

import dataclasses
import io
import json
import re
import tokenize
from pathlib import Path

import pytest

import conetube
from conetube import TOLERANCES, cli

SOURCES = sorted(Path(conetube.__file__).parent.glob("*.py"))
_EXPONENT = re.compile(r"e([+-]?[0-9_]+)j?$", re.IGNORECASE)

# every threshold keeps the value it had as a literal at its guard
VALUES = {
    "algebraic": 1e-12, "newton": 1e-13, "group_relation": 1e-11, "trace_relation": 1e-9,
    "curve_residual": 1e-9, "sample_agreement": 1e-6, "commutator_trace": 1e-10,
    "k_reference": 1e-8, "branch_match": 1e-8, "vanishing": 1e-9, "singular": 1e-14,
    "degenerate_shape": 1e-8, "unit_determinant": 1e-8, "involution": 1e-9,
    "filling_residual": 1e-12, "tube_identity": 1e-12, "base_point": 1e-10,
    "crossing": 1e-8, "double_root": 1e-8, "degenerate_order": 1e-10,
    "stationary_parameter": 1e-6,
}


def _small_literals(path: Path) -> list[str]:
    """e-notation number tokens with an exponent of -5 or below; code only."""
    found = []
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if tok.type != tokenize.NUMBER or tok.string.lower().startswith("0x"):
            continue
        m = _EXPONENT.search(tok.string)
        if m and int(m.group(1)) <= -5:
            found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    return found


def test_no_threshold_literal_outside_the_table():
    assert len(SOURCES) > 5
    assert [lit for p in SOURCES if p.name != "config.py" for lit in _small_literals(p)] == []


def test_the_literal_scan_sees_code_and_skips_text(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text('"""1e-9 in a docstring"""\n# 1e-9 in a comment\nx = 2.5E-07\ny = 1e-4\n')
    assert _small_literals(probe) == ["probe.py:3: 2.5E-07"]


def test_the_table_is_frozen():
    for field in dataclasses.fields(TOLERANCES):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(TOLERANCES, field.name, 1.0)
    assert dataclasses.replace(TOLERANCES, newton=1.0).newton == 1.0
    assert TOLERANCES.newton == 1e-13


def test_every_threshold_keeps_its_value():
    assert dataclasses.asdict(TOLERANCES) == VALUES


def test_one_quantity_is_judged_against_one_field(capsys, monkeypatch):
    # base and verify both judge the matrix relation residuals, and both read
    # group_relation for them; base reads algebraic for its gluing residuals
    monkeypatch.delenv("CONETUBE_TOL", raising=False)
    monkeypatch.setattr(
        cli, "TOLERANCES", dataclasses.replace(TOLERANCES, group_relation=0.25, algebraic=0.5)
    )
    assert cli.main(["base"]) == 0
    assert json.loads(capsys.readouterr().out)["tol"] == {"gluing": 0.5, "relations": 0.25}
    assert cli.main(["verify", "--points", "5"]) == 0
    tols = {c["check"]: c["tol"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert tols["group_relations"] == 0.25
