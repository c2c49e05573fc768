"""The benchmark workloads, driven through unitary_forge's public API.

Imported by run.py only after it has capped the BLAS thread pools and put
./src on sys.path, because importing this module loads numpy.
"""

from __future__ import annotations

import dataclasses
import gc
import importlib
import sys
import time
from pathlib import Path

import numpy as np

import harness

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
OUTPUT_SLACK = 1e-12  # rounding allowance on decoded outputs lying in [-1, 1]
MAX_RUN_FACTOR = 2  # training that has not met its tolerance stops at 2 x --seconds

# Each workload stresses a different layer; for every open optimisation one
# workload exercises it and another should not move. An Ansatz gate-chain
# workload (N=5, 1,024 angles) was tried and left out: its Python-bound
# steps swing 1.3x with load from other tenants of the host, against 1.1x
# for full_n8 in the same minutes, so its run-to-run spread (0.23-0.26 over
# ten seeds) did not fit a 0.25 bound.
WORKLOADS = {
    # FullUnitary identity training at N=8 (d=256, 65,536 parameters), batch
    # = dataset = 32. One exponential and its adjoint are ~97% of a step, so
    # linalg kernels show here and circuit changes should not. Tolerance
    # 1e-6: the default init already starts below 1e-4.
    "full_n8": dict(
        kind="FullUnitary", n_qubits=8, batch=32, infer_rows=1024, infer_every=2, tol=1e-6,
    ),
    # train_quanv_demo with 32 jointly trained 16x16 circuits on
    # synthetic_two_class(64), batch 64 (one step per epoch), lr 0.05. Each
    # step runs many small exponentials and encodes/decodes 3,136 patch rows,
    # so a kernel that wins at d=256 but loses at d=16 shows here. The
    # cross-entropy falls below 1e-6 at the third epoch on 20 of 20 seeds
    # tried (the worst at 3.8e-7), so time_to_tol_s counts the same epochs.
    "quanv_c32": dict(
        kind="quanv", images=64, batch=64, learning_rate=0.05, infer_images=256,
        infer_reps=12, tol=1e-6, trace_epochs=40, epochs_per_second=9, calls=5,
    ),
}

# Spans a workload must hit in the traced run; 0 calls fails the run.
EXPECTED_SPANS = {
    "full_n8": (
        "linalg.matexp", "linalg.matexp_vjp", "liegroup.assemble", "liegroup.param_grad",
        "circuit.encode", "circuit.decode", "models.forward", "models.backward",
        "optim.loss_and_grad", "optim.adam_step",
    ),
    "quanv_c32": (
        "linalg.matexp", "linalg.matexp_vjp", "liegroup.assemble", "liegroup.param_grad",
        "circuit.encode", "circuit.decode", "optim.adam_step", "quanv.train", "quanv.forward",
    ),
}


class Run:
    """Operation and check bookkeeping for one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


def fresh_import():
    """Import unitary_forge from ./src anew, dropping any loaded copy first."""
    for name in [n for n in sys.modules if n == "unitary_forge" or n.startswith("unitary_forge.")]:
        del sys.modules[name]
    importlib.import_module("unitary_forge.quanv")  # pulls in every layer module
    uf = sys.modules["unitary_forge"]
    if Path(uf.__file__).resolve().parent != ROOT / "src" / "unitary_forge":
        raise ImportError(f"unitary_forge loaded from {uf.__file__}, not from ./src")
    return uf


class Paused:
    """gc.collect() on entry, collector off inside, restored on exit."""

    def __enter__(self):
        gc.collect()
        self.was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc):
        if self.was_enabled:
            gc.enable()


def child_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


# -- identity workload (full_n8) -------------------------------------------


def setup_identity(w: dict, seed: int) -> dict:
    uf = fresh_import()
    optim = uf.optim
    data_seed, model_seed, held_seed = child_seeds(seed, 3)
    n = w["n_qubits"]
    cfg = optim.TrainConfig(seed=seed, batch_size=w["batch"], model_kind=w["kind"])
    x, y = optim.identity_dataset(n, w["batch"], data_seed)
    x_test, _ = optim.identity_dataset(n, w["infer_rows"], held_seed)
    model = optim.build_model(cfg, n, model_seed)
    initial = model.get_params()
    state = optim.adam_init(model.n_params)
    _, grad = optim.loss_and_grad(model, x, y)
    optim.adam_step(initial, grad, state, cfg)
    model.set_params(initial)
    return dict(uf=uf, cfg=cfg, x=x, y=y, x_test=x_test, model=model, initial=initial)


def train_identity(s: dict, run: Run, until, infer_every: int = 0):
    """Closed-loop steps from the initial parameters until `until(times, losses)`.

    With infer_every = k, one held-out inference call follows every k-th
    step, so inference is timed across the same minutes as training rather
    than in a short window of its own. Returns step seconds, losses and
    inference seconds."""
    optim, model, cfg, x, y = s["uf"].optim, s["model"], s["cfg"], s["x"], s["y"]
    params = s["initial"].copy()
    model.set_params(params)
    state = optim.adam_init(model.n_params)
    times: list[float] = []
    losses: list[float] = []
    infer: list[float] = []
    clock = time.perf_counter
    with Paused():
        while not until(times, losses):
            tic = clock()
            loss, grad = optim.loss_and_grad(model, x, y)
            params, state = optim.adam_step(params, grad, state, cfg)
            model.set_params(params)
            times.append(clock() - tic)
            losses.append(loss)
            run.op(np.isfinite(loss) and bool(np.isfinite(grad).all()), f"non-finite step {len(times)}")
            if infer_every and len(times) % infer_every == 0:
                infer.append(infer_identity(s, run))
    return times, losses, infer


def infer_identity(s: dict, run: Run) -> float:
    """Seconds of one forward-only call on the held-out batch."""
    circuit, model, x_test = s["uf"].circuit, s["model"], s["x_test"]
    tic = time.perf_counter()
    pred = circuit.z_expectations(model.apply(circuit.rx_encode(x_test)))
    seconds = time.perf_counter() - tic
    run.op(in_unit_range(pred), "held-out prediction outside [-1, 1]")
    return seconds


def in_unit_range(values) -> bool:
    return bool(np.isfinite(values).all()) and float(np.abs(values).max()) <= 1.0 + OUTPUT_SLACK


def check_identity(s: dict, run: Run, losses: list[float], w: dict) -> dict:
    uf, model, x, y = s["uf"], s["model"], s["x"], s["y"]
    final_loss, _ = uf.optim.loss_and_grad(model, x, y)
    run.check(final_loss < losses[0], f"loss did not fall: {losses[0]:.3e} -> {final_loss:.3e}")
    pred = uf.circuit.z_expectations(model.apply(uf.circuit.rx_encode(x)))
    out, _ = model.forward(uf.circuit.rx_encode(x).amplitudes)
    train_pred = uf.circuit.z_expectations_raw(out, w["n_qubits"])
    gap = float(np.abs(pred - train_pred).max())
    loss_gap = abs(float(np.mean((pred - y) ** 2)) - final_loss)
    run.check(gap <= 1e-12 and loss_gap <= 1e-12, f"inference differs from training forward by {gap:.2e}")
    run.check(in_unit_range(pred), "training-batch prediction outside [-1, 1]")
    err = uf.linalg.unitarity_error(uf.linalg.matexp(uf.liegroup.assemble(model.get_params())))
    run.check(err <= 1e-6, f"unitarity error {err:.2e} > 1e-6")
    return {"first_loss": losses[0], "final_loss": final_loss, "unitarity_error": err}


def identity_until(w: dict, seconds: float, cap_seconds: float):
    """Stop once the tolerance was met after `seconds` of steps, or after
    `cap_seconds` regardless."""

    def until(times, losses):
        spent = sum(times)
        done = spent >= seconds and any(loss < w["tol"] for loss in losses)
        return done or spent >= cap_seconds

    return until


@dataclasses.dataclass
class Outcome:
    """What a workload run measured, in the shape every workload shares."""

    setups: list[float]  # seconds of each set-up repeat
    steps: list[float]  # seconds of each training step
    samples_per_s: float
    steps_to_tol: int  # steps up to and including the first below tolerance
    time_to_tol_s: float
    infer_times: list[float] | None  # seconds of each inference call
    infer_rows: int
    detail: dict
    traced: dict | None = None  # tracer, ref_steps, steps, covered (share)


def reach(w: dict, step_seconds: list[float], losses: list[float], run: Run) -> tuple[int, float]:
    """(steps, seconds) to the tolerance; a miss fails the run and counts all."""
    hit = harness.time_to_tol(step_seconds, losses, w["tol"])
    run.check(hit is not None, f"loss never fell below {w['tol']:g}")
    return (hit[0] + 1, hit[1]) if hit else (len(losses), sum(step_seconds))


def repeat_setup(setup, w: dict, seed: int) -> tuple[dict, list[float]]:
    times = []
    for _ in range(SETUP_REPEATS):
        tic = time.perf_counter()
        s = setup(w, seed)
        times.append(time.perf_counter() - tic)
    return s, times


def run_identity(w: dict, seed: int, seconds: float, trace: bool, run: Run) -> Outcome:
    s, setups = repeat_setup(setup_identity, w, seed)
    if not trace:
        until = identity_until(w, seconds, MAX_RUN_FACTOR * seconds)
        times, losses, infer = train_identity(s, run, until, w["infer_every"])
        detail = check_identity(s, run, losses, w)
        samples = w["batch"] * len(times) / sum(times)
        return Outcome(setups, times, samples, *reach(w, times, losses, run), infer, w["infer_rows"], detail)
    # A fixed amount of work untraced, then exactly the same steps traced;
    # each pass gets at most --seconds.
    times, losses, _ = train_identity(s, run, identity_until(w, 0.0, seconds))
    tracer = harness.Tracer()
    tracer.install(s["uf"])
    try:
        t_times, t_losses, _ = train_identity(s, run, lambda ts, ls: len(ts) >= len(times))
        covered = tracer.top_ns / 1e9 / sum(t_times)
        infer_identity(s, run)
    finally:
        tracer.restore()
    run.check(t_losses == losses, "traced steps changed the losses")
    detail = check_identity(s, run, losses, w)
    outcome = Outcome(setups, times, 0.0, *reach(w, times, losses, run), None, w["infer_rows"], detail)
    outcome.traced = dict(tracer=tracer, ref_steps=times, steps=t_times, covered=covered)
    return outcome


# -- quanv workload ---------------------------------------------------------


def setup_quanv(w: dict, seed: int) -> dict:
    uf = fresh_import()
    quanv = uf.quanv
    data_seed, spec_seed, held_seed = child_seeds(seed, 3)
    imgs, labels = quanv.synthetic_two_class(w["images"], data_seed)
    test_imgs, _ = quanv.synthetic_two_class(w["infer_images"], held_seed)
    spec = quanv.random_quanv_spec(spec_seed)
    cfg = uf.optim.TrainConfig(learning_rate=w["learning_rate"], epochs=1, batch_size=w["batch"], seed=seed)
    quanv.train_quanv_demo(imgs, labels, cfg, spec)
    return dict(uf=uf, cfg=cfg, imgs=imgs, labels=labels, test_imgs=test_imgs, spec=spec)


def train_quanv(s: dict, run: Run, epochs: int):
    """One train_quanv_demo call; steps are the gaps between its adam_step calls.

    A shim on quanv's `adam_step` binding stamps the time of each call and
    checks that the gradient handed to it is finite.
    """
    quanv = s["uf"].quanv
    inner = quanv.adam_step
    stamps: list[float] = []
    clock = time.perf_counter

    def stamped(params, grads, state, cfg):
        stamps.append(clock())
        run.op(bool(np.isfinite(grads).all()), f"non-finite gradient at epoch {len(stamps)}")
        return inner(params, grads, state, cfg)

    quanv.adam_step = stamped
    try:
        with Paused():
            tic = clock()
            cfg = dataclasses.replace(s["cfg"], epochs=epochs)
            report = quanv.train_quanv_demo(s["imgs"], s["labels"], cfg, s["spec"])
            wall = clock() - tic
    finally:
        quanv.adam_step = inner
    marks = [tic] + stamps
    gaps = [b - a for a, b in zip(marks, marks[1:])]
    return report, wall, gaps


def infer_quanv(s: dict, spec, run: Run, reps: int) -> list[float]:
    quanv = s["uf"].quanv
    times = []
    clock = time.perf_counter
    with Paused():
        for _ in range(reps):
            tic = clock()
            maps = quanv.quanv_forward(s["test_imgs"], spec)
            times.append(clock() - tic)
            run.op(in_unit_range(maps), "held-out feature map outside [-1, 1]")
    return times


def check_quanv(s: dict, report, run: Run) -> tuple[dict, object]:
    quanv = s["uf"].quanv
    run.check(all(np.isfinite(report.loss_curve)), "non-finite quanv loss")
    final_acc = report.accuracy_curve[-1]
    run.check(final_acc >= 0.9, f"final accuracy {final_acc:.3f} < 0.9")
    params = report.final_params
    spec = dataclasses.replace(s["spec"], circuits=tuple(np.asarray(c) for c in params["circuits"]))
    maps = quanv.quanv_forward(s["imgs"], spec)
    logits = maps.reshape(maps.shape[0], -1) @ np.asarray(params["head_weights"]) + np.asarray(params["head_bias"])
    acc = float(np.mean(np.argmax(logits, axis=1) == s["labels"]))
    run.check(acc == final_acc, f"inference accuracy {acc} differs from training's {final_acc}")
    run.check(in_unit_range(maps), "training-image feature map outside [-1, 1]")
    detail = {"first_loss": report.loss_curve[0], "final_loss": report.loss_curve[-1], "final_accuracy": final_acc}
    return detail, spec


def run_quanv(w: dict, seed: int, seconds: float, trace: bool, run: Run) -> Outcome:
    """One step is the gap between two adam_step calls; the first gap also
    holds the head set-up and the initial accuracy pass, so it counts
    towards time_to_tol but is not a step sample."""
    s, setups = repeat_setup(setup_quanv, w, seed)
    if trace:
        report, wall, gaps = train_quanv(s, run, w["trace_epochs"])
        detail, spec = check_quanv(s, report, run)
        tracer = harness.Tracer()
        tracer.install(s["uf"])
        try:
            t_report, t_wall, t_gaps = train_quanv(s, run, w["trace_epochs"])
            covered = tracer.top_ns / 1e9 / t_wall
            infer_quanv(s, spec, run, 1)
        finally:
            tracer.restore()
        run.check(t_report.loss_curve == report.loss_curve, "traced epochs changed the losses")
        outcome = Outcome(setups, gaps[1:], 0.0, *reach(w, gaps, report.loss_curve, run), None,
                          w["infer_images"], detail)
        outcome.traced = dict(tracer=tracer, ref_steps=gaps[1:], steps=t_gaps[1:], covered=covered)
        return outcome
    # The same training, repeated: each call starts from the same spec and
    # must reproduce the first call's losses. A fixed epoch count per
    # --seconds keeps the work equal across runs (an epoch took ~0.11 s on
    # the host the baseline was measured on); never fewer than a traced run.
    epochs = max(w["trace_epochs"], round(w["epochs_per_second"] * seconds / w["calls"]))
    # Each call is followed by infer_reps inference calls with its trained
    # spec, so inference is timed across the same minutes as training.
    steps, to_tol, walls, infer, first = [], [], [], [], None
    for _ in range(w["calls"]):
        report, wall, gaps = train_quanv(s, run, epochs)
        first = first or report
        run.check(report.loss_curve == first.loss_curve, "repeated training changed the losses")
        n_tol, seconds_to_tol = reach(w, gaps, report.loss_curve, run)
        steps += gaps[1:]
        to_tol.append(seconds_to_tol)
        walls.append(wall)
        detail, spec = check_quanv(s, report, run)
        infer += infer_quanv(s, spec, run, w["infer_reps"])
    detail.update(epochs=epochs, calls=w["calls"])
    samples = w["images"] * epochs * len(walls) / sum(walls)
    return Outcome(setups, steps, samples, n_tol, harness.median(to_tol), infer, w["infer_images"], detail)


# -- metrics and output -----------------------------------------------------


def end_to_end(name: str, w: dict, o: Outcome, run: Run) -> dict:
    tail_value, tail_pct, n = harness.tail(o.steps)
    o.detail.update(step_s_tail_percentile=tail_pct, step_samples=n, steps_to_tol=o.steps_to_tol,
                    setup_samples_s=o.setups)
    return {
        "setup_s": harness.median(o.setups),
        "samples_per_s": o.samples_per_s,
        "step_s_p50": harness.median(o.steps),
        "step_s_tail": tail_value,
        "time_to_tol_s": o.time_to_tol_s,
        "infer_samples_per_s": o.infer_rows / harness.median(o.infer_times),
    }


def per_layer(name: str, w: dict, o: Outcome, run: Run) -> dict:
    tracer = o.traced["tracer"]
    for span in EXPECTED_SPANS[name]:
        run.check(tracer.calls[span] > 0, f"span {span} recorded no calls")
    metrics = tracer.results()
    metrics["optim.steps_to_tol"] = o.steps_to_tol
    metrics["trace.overhead"] = harness.median(o.traced["steps"]) / harness.median(o.traced["ref_steps"])
    metrics["trace.coverage"] = o.traced["covered"]
    o.detail["traced_steps"] = len(o.traced["steps"])
    return metrics
