"""Command-line surface: parsing, exit codes, and written artifacts."""

import json

import pytest

from unitary_forge.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    RunManifest,
    _prepare_quanv_demo,
    execute,
    parse_args,
)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BENCH_CONFIG = {
    "qubit_range": [1],
    "epochs": 2,
    "dataset_size": 2,
    "batch_sizes": [2],
    "model_kinds": ["FullUnitary"],
    "seed": 0,
}

TRAIN_CONFIG = {
    "n_qubits": 2,
    "dataset_size": 4,
    "train": {"epochs": 2, "batch_size": 4, "seed": 1},
}

QUANV_CONFIG = {
    "dataset": {"kind": "synthetic", "n_images": 8, "channels": 4, "height": 4, "width": 4},
    "spec": {"in_channels": 4, "out_channels": 2, "channel_block": 2},
    "train": {"epochs": 2, "batch_size": 8, "seed": 2},
}


class TestParseArgs:
    def test_bench_manifest(self):
        m = parse_args(["bench", "--config", "b.json", "--out", "r/"])
        assert m == RunManifest("bench", "b.json", "r/", None)

    def test_unknown_command_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["nope"])
        assert err.value.code == EXIT_USAGE

    def test_seed_override(self):
        m = parse_args(
            ["train-identity", "--config", "c.json", "--out", ".", "--seed", "7"]
        )
        assert m.seed_override == 7
        assert m.command == "train-identity"

    def test_missing_config_flag(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["bench", "--out", "r/"])
        assert err.value.code == EXIT_USAGE

    def test_manifest_validation(self):
        with pytest.raises(ValueError, match="unknown command"):
            RunManifest("explode", "a", "b")
        with pytest.raises(ValueError, match="non-empty"):
            RunManifest("bench", "", "b")


class TestExecuteBench:
    def test_writes_reports(self, tmp_path):
        cfg = write_config(tmp_path, "bench.json", BENCH_CONFIG)
        out = tmp_path / "out"
        code = execute(RunManifest("bench", cfg, str(out)))
        assert code == EXIT_OK
        for name in ("report.csv", "report.json", "report.md"):
            assert (out / name).exists()
        payload = json.loads((out / "report.json").read_text())
        assert len(payload["rows"]) == 1
        assert len(payload["rows"][0]["epoch_seconds"]) == 2

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = execute(RunManifest("bench", str(path), str(tmp_path / "o")))
        assert code == EXIT_USAGE

    def test_missing_file_exits_2(self, tmp_path):
        code = execute(RunManifest("bench", str(tmp_path / "nope.json"), str(tmp_path)))
        assert code == EXIT_USAGE

    def test_unknown_field_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {"qubits": [1]})
        assert execute(RunManifest("bench", cfg, str(tmp_path))) == EXIT_USAGE

    @pytest.mark.parametrize("value", ["two", "1.5", "0", "-3"])
    def test_bad_thread_cap_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("UNITARY_FORGE_THREADS", value)
        cfg = write_config(tmp_path, "bench.json", BENCH_CONFIG)
        out = tmp_path / "out"
        assert execute(RunManifest("bench", cfg, str(out))) == EXIT_USAGE
        assert "UNITARY_FORGE_THREADS" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_limit_exits_2_before_any_work(self, tmp_path, capsys):
        bad = dict(BENCH_CONFIG, limits=[{"max_qubits": -1}])
        cfg = write_config(tmp_path, "bench.json", bad)
        out = tmp_path / "out"
        assert execute(RunManifest("bench", cfg, str(out))) == EXIT_USAGE
        assert "max_qubits" in capsys.readouterr().err
        assert not out.exists()


class TestExecuteTrainIdentity:
    def test_writes_train_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, "train.json", TRAIN_CONFIG)
        out = tmp_path / "out"
        code = execute(RunManifest("train-identity", cfg, str(out)))
        assert code == EXIT_OK
        report = json.loads((out / "train_report.json").read_text())
        assert len(report["loss_curve"]) == 2
        checkpoint = json.loads((out / "checkpoint.json").read_text())
        assert checkpoint["model_kind"] == "FullUnitary"
        assert len(checkpoint["payload"]["theta"]) == 16
        curve = (out / "train_curve.csv").read_text().strip().splitlines()
        assert curve[0] == "epoch,loss,seconds"
        assert len(curve) == 3

    def test_seed_override_changes_results(self, tmp_path):
        cfg = write_config(tmp_path, "train.json", TRAIN_CONFIG)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert execute(RunManifest("train-identity", cfg, str(out_a))) == EXIT_OK
        assert execute(RunManifest("train-identity", cfg, str(out_b), seed_override=99)) == EXIT_OK
        curve_a = json.loads((out_a / "train_report.json").read_text())["loss_curve"]
        curve_b = json.loads((out_b / "train_report.json").read_text())["loss_curve"]
        assert curve_a != curve_b

    def test_reports_byte_identical_across_runs(self, tmp_path):
        cfg = write_config(tmp_path, "train.json", TRAIN_CONFIG)
        outs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            assert execute(RunManifest("train-identity", cfg, str(out))) == EXIT_OK
            payload = json.loads((out / "train_report.json").read_text())
            del payload["epoch_times"]  # timing fields excluded
            outs.append(json.dumps(payload, sort_keys=True))
        assert outs[0] == outs[1]

    def test_partition_group_not_dividing_wires_exits_2(self, tmp_path, capsys):
        train = dict(TRAIN_CONFIG["train"], model_kind="Partitioned", partition_group_size=3)
        cfg = write_config(tmp_path, "train.json", dict(TRAIN_CONFIG, train=train))
        out = tmp_path / "out"
        assert execute(RunManifest("train-identity", cfg, str(out))) == EXIT_USAGE
        assert "group size 3 must divide the wire count 2" in capsys.readouterr().err
        assert not out.exists()


class TestExecuteQuanvDemo:
    def test_writes_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, "quanv.json", QUANV_CONFIG)
        out = tmp_path / "out"
        code = execute(RunManifest("quanv-demo", cfg, str(out)))
        assert code == EXIT_OK
        report = json.loads((out / "train_report.json").read_text())
        assert len(report["accuracy_curve"]) == 2
        assert "initial_accuracy" in report
        checkpoint = json.loads((out / "checkpoint.json").read_text())
        assert len(checkpoint["circuits"]) == 4

    def test_prepared_runner_is_repeatable(self, tmp_path):
        dataset = dict(QUANV_CONFIG["dataset"], seed=5)
        runner = _prepare_quanv_demo(dict(QUANV_CONFIG, dataset=dataset))
        payloads = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            out.mkdir()
            runner(out)
            payload = json.loads((out / "train_report.json").read_text())
            del payload["epoch_times"]  # timing fields excluded
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    def test_unknown_dataset_kind_exits_2(self, tmp_path):
        bad = dict(QUANV_CONFIG, dataset={"kind": "imagenet"})
        cfg = write_config(tmp_path, "quanv.json", bad)
        assert execute(RunManifest("quanv-demo", cfg, str(tmp_path / "o"))) == EXIT_USAGE

    def test_missing_csv_path_is_runtime_error(self, tmp_path):
        bad = dict(QUANV_CONFIG, dataset={"kind": "csv", "path": str(tmp_path / "missing.csv")})
        cfg = write_config(tmp_path, "quanv.json", bad)
        assert execute(RunManifest("quanv-demo", cfg, str(tmp_path / "o"))) == EXIT_RUNTIME

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ("0,0.5,0.5", "row 4: expected a label and 64 pixels, got 3 values"),
            ("-1," + ",".join(["0.5"] * 64), "row 4: label -1 is negative"),
            ("one," + ",".join(["0.5"] * 64), "row 4: label 'one' is not an integer"),
        ],
    )
    def test_malformed_csv_exits_2_naming_the_row(self, tmp_path, capsys, bad_row, message):
        from unitary_forge.quanv import images_to_csv, synthetic_two_class

        imgs, labels = synthetic_two_class(3, seed=16, channels=4, height=4, width=4)
        path = tmp_path / "images.csv"
        images_to_csv(imgs, labels, path)
        with open(path, "a") as fh:
            fh.write(bad_row + "\n")
        dataset = {"kind": "csv", "path": str(path), "channels": 4, "height": 4, "width": 4}
        cfg = write_config(tmp_path, "quanv.json", dict(QUANV_CONFIG, dataset=dataset))
        out = tmp_path / "out"
        assert execute(RunManifest("quanv-demo", cfg, str(out))) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_csv_dataset_trains(self, tmp_path):
        from unitary_forge.quanv import images_to_csv, synthetic_two_class

        imgs, labels = synthetic_two_class(8, seed=17, channels=4, height=4, width=4)
        path = tmp_path / "images.csv"
        images_to_csv(imgs, labels, path)
        dataset = {"kind": "csv", "path": str(path), "channels": 4, "height": 4, "width": 4}
        cfg = write_config(tmp_path, "quanv.json", dict(QUANV_CONFIG, dataset=dataset))
        out = tmp_path / "out"
        assert execute(RunManifest("quanv-demo", cfg, str(out))) == EXIT_OK
        report = json.loads((out / "train_report.json").read_text())
        assert len(report["accuracy_curve"]) == 2
