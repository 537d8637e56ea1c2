from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import differential
from refineflow import parse_recipe, validate_recipe

DIFFERENTIAL = Path(__file__).parent / "differential.py"


def test_differential_digests_repeat_across_processes():
    # Two launches under different hash seeds must print the same digests,
    # or a diff between two checkouts would show noise.
    outputs = []
    for seed in ("1", "2"):
        result = subprocess.run(
            [sys.executable, str(DIFFERENTIAL), "--recipes", "3"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    lines = outputs[0].splitlines()
    assert outputs[0] == outputs[1]
    assert len(lines) == len(set(lines)) == 5 * 46
    assert all(re.fullmatch(r"[\w-]+/[\w:-]+ [0-9a-f]{64}", line) for line in lines)


def test_validation_reports_no_error_on_any_input():
    # A step's faults are its error, which the trace raises; validation
    # only warns and informs, on the fixtures and every generated recipe.
    for seed in (1, 99):
        for _, text in differential.inputs(300, seed):
            diagnostics = validate_recipe(parse_recipe(text))
            assert {diagnostic.severity for diagnostic in diagnostics} <= {"warning", "info"}
