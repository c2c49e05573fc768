"""Command-line entry point wiring JSON configs to the pipelines.

Three subcommands, all with the same flags:

    unitary-forge bench          --config cfg.json --out DIR [--seed N]
    unitary-forge train-identity --config cfg.json --out DIR [--seed N]
    unitary-forge quanv-demo     --config cfg.json --out DIR [--seed N]

Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
All randomness flows from a single seed (config value, overridable with
--seed); sub-seeds are derived deterministically per component, so a
fixed manifest reproduces every report byte for byte apart from timing
fields.

The environment variable UNITARY_FORGE_THREADS caps BLAS thread pools;
it is validated (a positive integer, else exit 2) and applied before
numpy loads, which is why this module defers the heavy imports into the
command bodies.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

__all__ = ["RunManifest", "parse_args", "execute", "main"]

COMMANDS = ("bench", "train-identity", "quanv-demo")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

_THREAD_ENV_TARGETS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class RunManifest:
    command: str
    config_path: str
    output_dir: str
    seed_override: int | None = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if not self.config_path or not self.output_dir:
            raise ValueError("config path and output directory must be non-empty")


def thread_cap() -> int | None:
    """The UNITARY_FORGE_THREADS cap, or None when the variable is unset.

    Raises ValueError naming the variable unless it is a positive integer.
    """
    raw = os.environ.get("UNITARY_FORGE_THREADS")
    if not raw:
        return None
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"UNITARY_FORGE_THREADS must be a positive integer, got {raw!r}")
    return cap


def apply_thread_cap() -> None:
    """Propagate UNITARY_FORGE_THREADS into the BLAS pool env knobs.

    Must run before numpy is first imported to take effect.
    """
    cap = thread_cap()
    if cap is None:
        return
    for name in _THREAD_ENV_TARGETS:
        os.environ[name] = str(cap)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unitary-forge",
        description="Train and benchmark circuits optimized over the full unitary group.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="|".join(COMMANDS))
    for name, text in (
        ("bench", "run the epoch-timing sweep and write report.{csv,json,md}"),
        ("train-identity", "train one model on the identity task"),
        ("quanv-demo", "train the quanvolutional classifier demo"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, metavar="PATH", help="JSON config file")
        cmd.add_argument("--out", required=True, metavar="DIR", help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def parse_args(argv: list[str]) -> RunManifest:
    """Validated manifest, or SystemExit(2) on usage errors."""
    ns = _build_parser().parse_args(argv)
    return RunManifest(ns.command, ns.config, ns.out, ns.seed)


def _prepare_bench(config: dict):
    from .bench import BenchConfig, emit_report, run_bench

    cfg = BenchConfig.from_dict(config)

    def run(out_dir: Path) -> None:
        report = run_bench(cfg)
        (out_dir / "report.csv").write_text(emit_report(report, "csv"))
        (out_dir / "report.json").write_text(emit_report(report, "json"))
        (out_dir / "report.md").write_text(emit_report(report, "markdown"))

    return run


def _prepare_train_identity(config: dict):
    from .circuit import cyclic_partitions
    from .optim import TrainConfig, loss_curve_csv, train_identity, train_report_to_json

    seed = config.pop("seed", None)
    n_qubits = config.pop("n_qubits", 4)
    dataset_size = config.pop("dataset_size", 32)
    train = dict(config.pop("train", {}))
    if config:
        raise ValueError(f"unknown train-identity config fields: {sorted(config)}")
    if seed is not None:
        train["seed"] = seed
    cfg = TrainConfig.from_dict(train)
    if cfg.model_kind == "Partitioned":  # raises unless the group size divides n_qubits
        cyclic_partitions(n_qubits, cfg.partition_group_size, cfg.partition_layers)

    def run(out_dir: Path) -> None:
        report = train_identity(cfg, n_qubits, dataset_size)
        context = {"n_qubits": n_qubits, "dataset_size": dataset_size, "train": train}
        (out_dir / "train_report.json").write_text(train_report_to_json(report, context))
        (out_dir / "train_curve.csv").write_text(loss_curve_csv(report))
        (out_dir / "checkpoint.json").write_text(json.dumps(report.final_params, indent=2))

    return run


def _prepare_quanv_demo(config: dict):
    from .optim import TrainConfig
    from .quanv import (
        _n_classes,
        load_image_csv,
        random_quanv_spec,
        synthetic_two_class,
        train_quanv_demo,
    )

    seed = config.pop("seed", None)
    dataset = dict(config.pop("dataset", {"kind": "synthetic"}))
    spec_overrides = dict(config.pop("spec", {}))
    train = dict(config.pop("train", {}))
    if config:
        raise ValueError(f"unknown quanv-demo config fields: {sorted(config)}")
    if seed is not None:
        train["seed"] = seed
    cfg = TrainConfig.from_dict(train)
    kind = dataset.pop("kind", "synthetic")
    # The images are loaded while the config is parsed, so a missing or
    # malformed CSV or labels that skip a class exit 2 before the output
    # directory is made.
    if kind == "synthetic":
        allowed = {"n_images", "seed", "channels", "height", "width", "noise"}
        unknown = set(dataset) - allowed
        if unknown:
            raise ValueError(f"unknown synthetic dataset fields: {sorted(unknown)}")
        imgs, labels = synthetic_two_class(**{"n_images": 64, "seed": cfg.seed, **dataset})
    elif kind == "csv":
        if "path" not in dataset:
            raise ValueError("csv dataset requires a path")
        imgs, labels = load_image_csv(
            dataset["path"],
            channels=dataset.get("channels", 16),
            height=dataset.get("height", 8),
            width=dataset.get("width", 8),
        )
        _n_classes(labels)  # the check train_quanv_demo runs
    else:
        raise ValueError(f"unknown dataset kind {kind!r}")

    def run(out_dir: Path) -> None:
        spec = random_quanv_spec(cfg.seed, **spec_overrides) if spec_overrides else None
        report = train_quanv_demo(imgs, labels, cfg, spec=spec)
        (out_dir / "train_report.json").write_text(report.to_json())
        (out_dir / "checkpoint.json").write_text(json.dumps(report.final_params, indent=2))

    return run


_PREPARERS = {
    "bench": _prepare_bench,
    "train-identity": _prepare_train_identity,
    "quanv-demo": _prepare_quanv_demo,
}


def execute(manifest: RunManifest) -> int:
    """Run the selected pipeline; returns a process exit code."""
    try:
        apply_thread_cap()
        with open(manifest.config_path) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("config root must be a JSON object")
        if manifest.seed_override is not None:
            config["seed"] = manifest.seed_override
        runner = _PREPARERS[manifest.command](config)
    except (OSError, json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        out_dir = Path(manifest.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        runner(out_dir)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    manifest = parse_args(sys.argv[1:] if argv is None else argv)
    return execute(manifest)


if __name__ == "__main__":
    sys.exit(main())
