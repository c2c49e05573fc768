"""Demo scripts run end to end in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )


def test_quanvolution_demo_prints_its_accuracy_table():
    done = run_demo("06_quanvolution.py")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert any(line.startswith("untrained accuracy: ") for line in lines)
    header = lines.index("epoch  loss      accuracy")
    table = [line.split() for line in lines[header + 1 : header + 8]]
    assert [int(epoch) for epoch, _, _ in table] == [0, 1, 2, 4, 9, 19, 29]
    losses = [float(loss) for _, loss, _ in table]
    accuracies = [float(acc) for _, _, acc in table]
    assert all(loss >= 0.0 for loss in losses)
    assert all(0.0 <= acc <= 1.0 for acc in accuracies)
    assert accuracies[-1] >= 0.9
