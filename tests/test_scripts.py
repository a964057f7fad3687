import importlib.util
import subprocess
import sys
from pathlib import Path

from expoverlap.measures import COEFFICIENTS
from expoverlap.simulation import SimConfig

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_reproduce_reference_table_script():
    # the README's figure: the default study passes 101 of 118 table entries
    proc = subprocess.run([sys.executable, str(SCRIPTS / "reproduce_reference_table.py")],
                          capture_output=True, text=True)
    assert proc.returncode == 4, proc.stderr
    assert "101/118 non-excluded cells within tolerance" in proc.stdout
    assert "gate (>= 90%): FAIL" in proc.stdout


def test_adjudicate_bias_formulas_run(capsys):
    spec = importlib.util.spec_from_file_location(
        "adjudicate_bias_formulas", SCRIPTS / "adjudicate_bias_formulas.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    cfg = SimConfig(r_values=(0.5, 2.0), sample_sizes=(10, 20),
                    replications=50, seed=3)
    script.run("small grid", cfg)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "=== small grid ==="
    # one tally row per coefficient; formula + oracle + tie counts every cell
    for key, line in zip(COEFFICIENTS, lines[2:6]):
        name, *counts = line.split()
        assert name == key and sum(map(int, counts)) == len(cfg.cells())
    assert sum(line.startswith("  r=") for line in lines) == 6
