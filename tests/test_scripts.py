"""The two documented scripts run to completion in a fresh process, and
each row of the mutation register aims at one place in the code."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import lefscalc

ROOT = Path(__file__).resolve().parents[1]
SEED_0_DIGEST = "a5053d3358fee9fa"


def run_script(name: str) -> subprocess.CompletedProcess:
    source = str(Path(lefscalc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def test_worked_examples_script_agrees_everywhere():
    result = run_script("worked_examples.py")
    assert result.returncode == 0, result.stderr
    assert "MISMATCH" not in result.stdout
    assert "hexagon self-maps" in result.stdout


def test_run_verify_script_prints_the_seed_0_digest():
    result = run_script("run_verify.py")
    assert result.returncode == 0, result.stderr
    assert f"two runs with seed 0 agree ({SEED_0_DIGEST}" in result.stdout


def test_each_mutant_of_the_register_aims_at_one_place():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.refusals(ROOT, mutants.MUTANTS) == []
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    assert all(m.old != m.new for m in mutants.MUTANTS)
