"""The scripts/ drivers run end to end at their default settings."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phi4lab

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def test_every_driver_is_listed():
    assert [s.name for s in SCRIPTS] == [
        "counterterm_growth.py", "nongaussianity_scan.py", "run_stability_sweep.py"]


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda s: s.stem)
def test_driver_writes_a_csv(script, tmp_path):
    src = str(Path(phi4lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = tmp_path / "out.csv"
    proc = subprocess.run([sys.executable, str(script), "--out", str(out)], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header and rows
    assert all(len(row) == len(header) for row in rows)
