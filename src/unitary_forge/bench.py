"""Wall-clock benchmark harness: epoch timing across qubits, batches, models.

Every cell of the sweep runs the identity-learning loop with identical
workload semantics (same dataset seed, 2^(2N) trainable parameters for
both the full-unitary model and the composed-gate baseline) and records
per-epoch wall-clock samples, one untimed warmup epoch first. Absolute
times are hardware-specific; the interesting outputs are orderings and
ratios, e.g. batched vs per-point passes and one exponential vs a long
gate chain.

Cells run strictly sequentially so timings do not interfere. Reports go
out as flat CSV, exact-round-trip JSON, or a pivoted markdown table with
three-significant-digit scientific notation.
"""

from __future__ import annotations

import csv
import gc
import io
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .cli import thread_cap as active_thread_count
from .models import MODEL_KINDS
from .optim import TrainConfig, train_identity

__all__ = [
    "BenchConfig",
    "BenchLimit",
    "BenchRow",
    "BenchReport",
    "run_bench",
    "emit_report",
    "report_from_json",
    "active_thread_count",
]


@dataclass(frozen=True)
class BenchLimit:
    """Cap the qubit count for matching cells; None matches anything."""

    max_qubits: int
    model_kind: str | None = None
    batch_size: int | None = None

    def __post_init__(self):
        if self.max_qubits < 0:
            raise ValueError(f"limit max_qubits must be >= 0, got {self.max_qubits}")

    def excludes(self, n_qubits: int, model_kind: str, batch_size: int) -> bool:
        if self.model_kind is not None and self.model_kind != model_kind:
            return False
        if self.batch_size is not None and self.batch_size != batch_size:
            return False
        return n_qubits > self.max_qubits


@dataclass(frozen=True)
class BenchConfig:
    qubit_range: tuple[int, ...] = tuple(range(1, 11))
    epochs: int = 10
    dataset_size: int = 32
    batch_sizes: tuple[int, ...] = (1, 32)
    model_kinds: tuple[str, ...] = ("FullUnitary", "Ansatz")
    seed: int = 0
    learning_rate: float = 0.01
    limits: tuple[BenchLimit, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "qubit_range", tuple(int(n) for n in self.qubit_range))
        object.__setattr__(self, "batch_sizes", tuple(int(b) for b in self.batch_sizes))
        object.__setattr__(self, "model_kinds", tuple(self.model_kinds))
        object.__setattr__(self, "limits", tuple(self.limits))
        if not self.qubit_range or any(n < 1 for n in self.qubit_range):
            raise ValueError("qubit_range must be non-empty positive integers")
        if self.epochs < 1 or self.dataset_size < 1:
            raise ValueError("epochs and dataset_size must be positive")
        if not self.batch_sizes or any(b < 1 for b in self.batch_sizes):
            raise ValueError("batch_sizes must be positive")
        bad = [k for k in self.model_kinds if k not in MODEL_KINDS]
        if bad:
            raise ValueError(f"unknown model kinds {bad}")

    @classmethod
    def from_dict(cls, payload: dict) -> "BenchConfig":
        payload = dict(payload)
        limits = tuple(BenchLimit(**item) for item in payload.pop("limits", []))
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown BenchConfig fields: {sorted(unknown)}")
        return cls(limits=limits, **payload)

    def to_dict(self) -> dict:
        return {
            "qubit_range": list(self.qubit_range),
            "epochs": self.epochs,
            "dataset_size": self.dataset_size,
            "batch_sizes": list(self.batch_sizes),
            "model_kinds": list(self.model_kinds),
            "seed": self.seed,
            "learning_rate": self.learning_rate,
            "limits": [asdict(lim) for lim in self.limits],
        }


@dataclass
class BenchRow:
    n_qubits: int
    model_kind: str
    batch_size: int
    dataset_size: int
    epoch_seconds: list[float]

    @property
    def mean_epoch_seconds(self) -> float:
        return float(np.mean(self.epoch_seconds))

    @property
    def std_epoch_seconds(self) -> float:
        if len(self.epoch_seconds) < 2:
            return 0.0
        return float(np.std(self.epoch_seconds, ddof=1))

    @property
    def median_epoch_seconds(self) -> float:
        return float(np.median(self.epoch_seconds))

    @property
    def min_epoch_seconds(self) -> float:
        """Best-of-samples estimate of the true epoch cost.

        Scheduler noise only ever adds time, so the minimum is the most
        stable statistic for cross-cell comparisons of sub-millisecond
        cells; the mean and std above describe the observed distribution.
        """
        return float(np.min(self.epoch_seconds))


@dataclass
class BenchReport:
    rows: list[BenchRow]
    meta: dict = field(default_factory=dict)
    failures: list[dict] = field(default_factory=list)

    def cell(self, n_qubits: int, model_kind: str, batch_size: int) -> BenchRow | None:
        for row in self.rows:
            if (row.n_qubits, row.model_kind, row.batch_size) == (
                n_qubits,
                model_kind,
                batch_size,
            ):
                return row
        return None


def run_bench(cfg: BenchConfig) -> BenchReport:
    """Sweep (model kind, batch size, qubit count) cells sequentially.

    Every cell shares the dataset seed, so kinds and batch sizes time the
    same workload. The composed-gate baseline gets 2^(2N) rotation angles
    to match the full model's parameter count. A cell that runs out of
    memory is recorded under failures and the sweep continues. Garbage
    collection is paused for the sweep: a collection pause is larger than
    an entire epoch at small qubit counts. meta.threads is the
    UNITARY_FORGE_THREADS cap, or None when none is set; an invalid cap
    raises before the first cell runs.
    """
    threads = active_thread_count()
    rows: list[BenchRow] = []
    failures: list[dict] = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for kind in cfg.model_kinds:
            for batch in cfg.batch_sizes:
                for n in cfg.qubit_range:
                    if any(lim.excludes(n, kind, batch) for lim in cfg.limits):
                        continue
                    tcfg = TrainConfig(
                        learning_rate=cfg.learning_rate,
                        epochs=cfg.epochs,
                        batch_size=batch,
                        seed=cfg.seed,
                        model_kind=kind,
                        ansatz_gate_count=4 ** n,
                    )
                    try:
                        report = train_identity(tcfg, n, cfg.dataset_size, warmup=True)
                    except MemoryError as exc:
                        failures.append(
                            {
                                "n_qubits": n,
                                "model_kind": kind,
                                "batch_size": batch,
                                "error": f"out of memory: {exc}",
                            }
                        )
                        continue
                    rows.append(
                        BenchRow(n, kind, batch, cfg.dataset_size, report.epoch_times)
                    )
    finally:
        if gc_was_enabled:
            gc.enable()
    meta = {
        "epochs": cfg.epochs,
        "dataset_size": cfg.dataset_size,
        "seed": cfg.seed,
        "threads": threads,
    }
    return BenchReport(rows, meta, failures)


def _sci(value: float) -> str:
    return f"{value:.2e}"


def emit_report(report: BenchReport, fmt: str) -> str:
    """Render a report as csv, json, or markdown text."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            [
                "n_qubits",
                "model_kind",
                "batch_size",
                "dataset_size",
                "mean_epoch_seconds",
                "std_epoch_seconds",
            ]
        )
        for row in report.rows:
            writer.writerow(
                [
                    row.n_qubits,
                    row.model_kind,
                    row.batch_size,
                    row.dataset_size,
                    _sci(row.mean_epoch_seconds),
                    _sci(row.std_epoch_seconds),
                ]
            )
        return buf.getvalue()
    if fmt == "json":
        payload = {
            "meta": report.meta,
            "rows": [
                {
                    "n_qubits": row.n_qubits,
                    "model_kind": row.model_kind,
                    "batch_size": row.batch_size,
                    "dataset_size": row.dataset_size,
                    "epoch_seconds": row.epoch_seconds,
                    "mean_epoch_seconds": row.mean_epoch_seconds,
                    "std_epoch_seconds": row.std_epoch_seconds,
                }
                for row in report.rows
            ],
            "failures": report.failures,
        }
        return json.dumps(payload, indent=2)
    if fmt == "markdown":
        configs = sorted({(row.model_kind, row.batch_size) for row in report.rows})
        qubits = sorted({row.n_qubits for row in report.rows})
        header = ["qubits"] + [f"{kind} (batch {b})" for kind, b in configs]
        lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
        for n in qubits:
            cells = [str(n)]
            for kind, b in configs:
                row = report.cell(n, kind, b)
                cells.append(
                    f"{_sci(row.mean_epoch_seconds)} ± {_sci(row.std_epoch_seconds)}"
                    if row
                    else "—"
                )
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def report_from_json(text: str) -> BenchReport:
    payload = json.loads(text)
    rows = [
        BenchRow(
            r["n_qubits"],
            r["model_kind"],
            r["batch_size"],
            r["dataset_size"],
            list(r["epoch_seconds"]),
        )
        for r in payload["rows"]
    ]
    return BenchReport(rows, payload.get("meta", {}), payload.get("failures", []))
