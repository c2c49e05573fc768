"""Benchmark harness: sweep mechanics and report emission."""

import csv
import io

import numpy as np
import pytest

from unitary_forge.bench import (
    BenchConfig,
    BenchLimit,
    BenchReport,
    BenchRow,
    emit_report,
    report_from_json,
    run_bench,
)


def tiny_config(**overrides):
    settings = dict(
        qubit_range=(1, 2),
        epochs=3,
        dataset_size=4,
        batch_sizes=(4,),
        model_kinds=("FullUnitary",),
        seed=0,
    )
    settings.update(overrides)
    return BenchConfig(**settings)


class TestBenchConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="qubit_range"):
            BenchConfig(qubit_range=())
        with pytest.raises(ValueError, match="model kinds"):
            BenchConfig(model_kinds=("Nope",))
        with pytest.raises(ValueError, match="batch_sizes"):
            BenchConfig(batch_sizes=(0,))

    def test_from_dict_round_trip(self):
        cfg = tiny_config(limits=(BenchLimit(max_qubits=1, model_kind="FullUnitary"),))
        back = BenchConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_limit_rejects_negative_max_qubits(self):
        assert BenchLimit(max_qubits=0).excludes(1, "FullUnitary", 1)
        with pytest.raises(ValueError, match="max_qubits"):
            BenchLimit(max_qubits=-1)

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown"):
            BenchConfig.from_dict({"qubits": [1]})


class TestRunBench:
    def test_rows_carry_exactly_epochs_samples(self):
        report = run_bench(tiny_config())
        assert len(report.rows) == 2
        for row in report.rows:
            assert len(row.epoch_seconds) == 3
            assert row.mean_epoch_seconds > 0.0
            assert row.std_epoch_seconds >= 0.0
            assert row.min_epoch_seconds <= row.median_epoch_seconds <= row.mean_epoch_seconds + row.std_epoch_seconds

    def test_limits_skip_cells(self):
        cfg = tiny_config(
            model_kinds=("FullUnitary", "Ansatz"),
            limits=(BenchLimit(max_qubits=1, model_kind="Ansatz"),),
        )
        report = run_bench(cfg)
        kinds = {(r.model_kind, r.n_qubits) for r in report.rows}
        assert ("Ansatz", 1) in kinds
        assert ("Ansatz", 2) not in kinds
        assert ("FullUnitary", 2) in kinds

    def test_batch_limit_matches_only_that_batch(self):
        cfg = tiny_config(
            batch_sizes=(1, 4),
            limits=(BenchLimit(max_qubits=1, batch_size=1),),
        )
        report = run_bench(cfg)
        cells = {(r.batch_size, r.n_qubits) for r in report.rows}
        assert (1, 2) not in cells
        assert (4, 2) in cells

    def test_meta_reports_threads(self, monkeypatch):
        monkeypatch.delenv("UNITARY_FORGE_THREADS", raising=False)
        report = run_bench(tiny_config(qubit_range=(1,)))
        assert report.meta["threads"] is None
        assert report.meta["epochs"] == 3
        monkeypatch.setenv("UNITARY_FORGE_THREADS", "3")
        assert run_bench(tiny_config(qubit_range=(1,))).meta["threads"] == 3

    def test_bad_thread_cap_raises_before_the_first_cell(self, monkeypatch):
        import unitary_forge.bench as bench

        cells = []
        monkeypatch.setattr(bench, "train_identity", lambda *args, **kw: cells.append(args))
        monkeypatch.setenv("UNITARY_FORGE_THREADS", "0")
        with pytest.raises(ValueError, match="UNITARY_FORGE_THREADS"):
            run_bench(tiny_config())
        assert cells == []

    def test_identity_workload_across_kinds(self):
        # both kinds expose 4^N parameters over the same dataset seed
        from unitary_forge.optim import TrainConfig, build_model

        for kind in ("FullUnitary", "Ansatz"):
            cfg = TrainConfig(model_kind=kind, ansatz_gate_count=4 ** 2)
            model = build_model(cfg, 2, seed=0)
            assert model.n_params == 16


class TestEmitReport:
    def test_empty_report_has_header_only(self):
        text = emit_report(BenchReport([], {}, []), "csv")
        lines = text.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("n_qubits,")

    def test_single_row_csv_parses(self):
        row = BenchRow(3, "FullUnitary", 8, 16, [0.001, 0.0012, 0.0009])
        text = emit_report(BenchReport([row], {}, []), "csv")
        records = list(csv.DictReader(io.StringIO(text)))
        assert len(records) == 1
        assert records[0]["n_qubits"] == "3"
        assert float(records[0]["mean_epoch_seconds"]) == pytest.approx(
            np.mean([0.001, 0.0012, 0.0009]), rel=1e-2
        )

    def test_json_round_trip_identical(self):
        rows = [
            BenchRow(1, "FullUnitary", 4, 8, [0.01, 0.02]),
            BenchRow(2, "Ansatz", 4, 8, [0.5, 0.4]),
        ]
        report = BenchReport(rows, {"threads": 1, "epochs": 2}, [])
        back = report_from_json(emit_report(report, "json"))
        assert back == report

    def test_markdown_table_layout(self):
        rows = [
            BenchRow(1, "FullUnitary", 32, 32, [0.001, 0.001]),
            BenchRow(1, "Ansatz", 32, 32, [0.1, 0.1]),
            BenchRow(2, "FullUnitary", 32, 32, [0.002, 0.002]),
        ]
        text = emit_report(BenchReport(rows, {}, []), "markdown")
        lines = text.strip().splitlines()
        assert lines[0].startswith("| qubits |")
        assert "Ansatz (batch 32)" in lines[0]
        assert len(lines) == 4  # header, rule, two qubit rows
        assert "—" in lines[3]  # missing Ansatz cell at N=2

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            emit_report(BenchReport([], {}, []), "yaml")

    def test_scientific_notation_three_significant_digits(self):
        row = BenchRow(1, "FullUnitary", 1, 1, [0.00123456])
        text = emit_report(BenchReport([row], {}, []), "csv")
        assert "1.23e-03" in text


class TestDeterminism:
    def test_row_identities_and_sample_counts_repeat(self):
        cfg = tiny_config()
        a = run_bench(cfg)
        b = run_bench(cfg)
        ids_a = [(r.n_qubits, r.model_kind, r.batch_size, len(r.epoch_seconds)) for r in a.rows]
        ids_b = [(r.n_qubits, r.model_kind, r.batch_size, len(r.epoch_seconds)) for r in b.rows]
        assert ids_a == ids_b
