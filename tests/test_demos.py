"""Demo scripts run end to end in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )


def printed_value(done: subprocess.CompletedProcess, prefix: str) -> str:
    """The rest of the first stdout line that starts with prefix, after a successful run."""
    assert done.returncode == 0, done.stderr
    lines = [line.strip() for line in done.stdout.splitlines()]
    return next(line[len(prefix):] for line in lines if line.startswith(prefix))


def test_unitaries_demo_prints_a_unitary():
    err = printed_value(run_demo("01_unitaries_from_vectors.py"), "unitarity error max|U^H U - I| = ")
    assert float(err) <= 1e-12


def test_gradients_demo_matches_finite_differences():
    done = run_demo("02_gradients_through_exp.py")
    rel = printed_value(done, "max relative deviation analytic vs finite differences: ")
    assert float(rel) <= 1e-6
    grad = printed_value(done, "sample gradient entries: ").strip("[]").split()
    fd = printed_value(done, "matching finite-diff  : ").strip("[]").split()
    assert len(grad) == len(fd) == 5
    assert np.allclose([float(v) for v in grad], [float(v) for v in fd], rtol=1e-6, atol=1e-8)


def test_identity_demo_trains_below_tolerance():
    best = printed_value(run_demo("03_learning_identity.py"), "best loss: ")
    assert float(best) <= 1e-4


def test_ansatz_demo_rebuilds_the_product():
    dev = printed_value(run_demo("04_ansatz_vs_full.py"), "max deviation: ")
    assert float(dev) <= 1e-12


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
