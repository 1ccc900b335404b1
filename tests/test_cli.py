"""Command-line interface behaviour."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(
            ["train", "--scenario", "c10-resnet"])
        assert args.method == "edde"
        assert args.seed == 0

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["train", "--scenario", "c10-resnet", "--method", "xgboost"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert "edde" in output
        assert "c100-resnet" in output

    def test_train_tiny(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRAIN_SIZE", "60")
        monkeypatch.setenv("REPRO_TEST_SIZE", "30")
        monkeypatch.setenv("REPRO_SCALE", "0.13")  # 1-epoch budgets
        save_path = str(tmp_path / "ens.npz")
        code = main(["train", "--scenario", "c10-resnet", "--method", "edde",
                     "--save", save_path])
        assert code == 0
        output = capsys.readouterr().out
        assert "ensemble accuracy" in output
        assert "saved ensemble" in output

    def test_compare_tiny(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TRAIN_SIZE", "60")
        monkeypatch.setenv("REPRO_TEST_SIZE", "30")
        monkeypatch.setenv("REPRO_SCALE", "0.13")
        code = main(["compare", "--scenario", "c10-resnet",
                     "--methods", "single,edde"])
        assert code == 0
        output = capsys.readouterr().out
        assert "Single Model" in output
        assert "EDDE" in output


class TestServeEval:
    @pytest.fixture(autouse=True)
    def tiny_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRAIN_SIZE", "60")
        monkeypatch.setenv("REPRO_TEST_SIZE", "30")
        monkeypatch.setenv("REPRO_SCALE", "0.13")

    @pytest.fixture
    def saved_ensemble(self, tmp_path):
        path = str(tmp_path / "ens.npz")
        assert main(["train", "--scenario", "c10-resnet", "--method", "edde",
                     "--save", path]) == 0
        return path

    def test_clean_serving(self, capsys, saved_ensemble):
        code = main(["serve-eval", "--scenario", "c10-resnet",
                     "--ensemble", saved_ensemble, "--requests", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "4 answered" in out
        assert "accuracy (served)" in out
        assert "service health:    ready" in out

    def test_degraded_serving_under_injection(self, capsys, saved_ensemble):
        code = main(["serve-eval", "--scenario", "c10-resnet",
                     "--ensemble", saved_ensemble, "--requests", "4",
                     "--inject", "corrupt:0,flaky:1:every=1",
                     "--fault-threshold", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "inject: corrupted member 0 arrays" in out
        assert "dropped #0 at load" in out
        assert "quarantined #1" in out
        assert "4 answered" in out
        # The rehearsal ran on a copy: the artifact still loads strictly.
        assert main(["serve-eval", "--scenario", "c10-resnet",
                     "--ensemble", saved_ensemble, "--requests", "1",
                     "--strict"]) == 0

    def test_quorum_refusal_is_clean_exit_2(self, capsys, saved_ensemble):
        code = main(["serve-eval", "--scenario", "c10-resnet",
                     "--ensemble", saved_ensemble, "--requests", "2",
                     "--inject", "truncate"])
        assert code == 2
        err = capsys.readouterr().err
        assert "service refused to start" in err
        assert "Traceback" not in err

    def test_poisoned_requests_are_rejected_not_served(self, capsys,
                                                       saved_ensemble):
        code = main(["serve-eval", "--scenario", "c10-resnet",
                     "--ensemble", saved_ensemble, "--requests", "4",
                     "--poison-every", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 rejected" in out
        assert "non-finite" in out

    def test_bad_inject_spec_is_clean_error(self, capsys, tmp_path):
        code = main(["serve-eval", "--scenario", "c10-resnet",
                     "--ensemble", str(tmp_path / "whatever.npz"),
                     "--inject", "explode:0"])
        assert code == 2
        assert "bad --inject spec" in capsys.readouterr().err


class TestFaultToleranceFlags:
    @pytest.fixture(autouse=True)
    def tiny_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRAIN_SIZE", "60")
        monkeypatch.setenv("REPRO_TEST_SIZE", "30")
        monkeypatch.setenv("REPRO_SCALE", "0.13")

    def test_resume_requires_checkpoint_dir(self, capsys):
        code = main(["train", "--scenario", "c10-resnet", "--resume"])
        assert code == 2
        assert "--resume requires --checkpoint-dir" in capsys.readouterr().err

    def test_resume_missing_checkpoints_is_clean_error(self, capsys, tmp_path):
        # Missing/corrupt checkpoints must exit non-zero with a message,
        # never a traceback.
        code = main(["train", "--scenario", "c10-resnet",
                     "--checkpoint-dir", str(tmp_path / "absent"), "--resume"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: cannot resume" in err
        assert "Traceback" not in err

    def test_resume_corrupt_manifest_is_clean_error(self, capsys, tmp_path):
        directory = tmp_path / "ckpt"
        directory.mkdir()
        (directory / "manifest.json").write_text("{broken")
        code = main(["train", "--scenario", "c10-resnet",
                     "--checkpoint-dir", str(directory), "--resume"])
        assert code == 2
        assert "error: cannot resume" in capsys.readouterr().err

    def test_checkpoint_then_resume(self, capsys, tmp_path):
        directory = str(tmp_path / "ckpt")
        assert main(["train", "--scenario", "c10-resnet", "--method", "edde",
                     "--checkpoint-dir", directory]) == 0
        first = capsys.readouterr().out
        assert (tmp_path / "ckpt" / "manifest.json").is_file()

        assert main(["train", "--scenario", "c10-resnet", "--method", "edde",
                     "--checkpoint-dir", directory, "--resume"]) == 0
        second = capsys.readouterr().out
        assert "resuming edde from checkpoint round" in second
        accuracy = [line for line in first.splitlines()
                    if "ensemble accuracy" in line]
        assert accuracy[0] in second


class TestGridCommand:
    @pytest.fixture(autouse=True)
    def tiny_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRAIN_SIZE", "60")
        monkeypatch.setenv("REPRO_TEST_SIZE", "30")
        monkeypatch.setenv("REPRO_SCALE", "0.13")

    @pytest.fixture
    def spec_path(self, tmp_path):
        import json
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "name": "cli_smoke",
            "factors": {"method": ["single"], "scenario": ["c10-resnet"],
                        "seed": [0, 1]},
            "checkpoint": False,
        }))
        return str(path)

    def test_in_memory_grid(self, capsys, spec_path, tmp_path):
        results = tmp_path / "results"
        code = main(["grid", "--spec", spec_path,
                     "--results", str(results)])
        assert code == 0
        out = capsys.readouterr().out
        assert "final_accuracy" in out
        assert (results / "GRID_cli_smoke.json").is_file()

    def test_sharded_flow(self, capsys, spec_path, tmp_path):
        out_dir = str(tmp_path / "state")
        results = tmp_path / "results"
        args = ["grid", "--spec", spec_path, "--out", out_dir,
                "--results", str(results)]
        assert main(args + ["--shard", "0/2"]) == 0
        assert "waiting for other shards" in capsys.readouterr().out
        assert not (results / "GRID_cli_smoke.json").is_file()
        assert main(args + ["--shard", "1/2"]) == 0
        assert "aggregate artifact" in capsys.readouterr().out
        assert (results / "GRID_cli_smoke.json").is_file()
        # state exists now: a re-run without --resume must refuse...
        assert main(args) == 2
        assert "resume" in capsys.readouterr().err
        # ...and --resume just replays the manifests
        assert main(args + ["--resume"]) == 0

    def test_bad_shard_is_clean_error(self, capsys, spec_path, tmp_path):
        code = main(["grid", "--spec", spec_path,
                     "--out", str(tmp_path), "--shard", "two/four"])
        assert code == 2
        assert "--shard" in capsys.readouterr().err

    def test_shard_without_out_rejected(self, capsys, spec_path):
        code = main(["grid", "--spec", spec_path, "--shard", "0/2"])
        assert code == 2
        assert "--out" in capsys.readouterr().err

    def test_workers_without_out_rejected(self, capsys, spec_path):
        code = main(["grid", "--spec", spec_path, "--workers", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--out" in err
        assert "Traceback" not in err

    def test_malformed_spec_is_clean_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "factors": {"seed": [0]}, "oops": 1}')
        code = main(["grid", "--spec", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown spec field" in err
        assert "Traceback" not in err


class TestServeSuites:
    """The serve-* suites exit 0, print their table and write the JSON."""

    def test_serve_load(self, capsys, tmp_path):
        code = main(["serve-load", "--sizes", "1", "--requests", "16",
                     "--clients", "2", "--results", str(tmp_path)])
        assert code == 0
        output = capsys.readouterr().out
        assert "bit-parity (batched == solo): ok" in output
        payload = json.loads((tmp_path / "BENCH_serving.json").read_text())
        assert payload["parity_ok"]
        (open_cell,) = [cell for cell in payload["cells"]
                        if cell["arrival"] == "open"]
        window = open_cell["config"]["max_wait_ms"]
        assert open_cell["open_loop"]["queueing_delay_ms"]["max"] <= \
            window + 1e-9

    def test_serve_overload(self, capsys, tmp_path):
        code = main(["serve-overload", "--results", str(tmp_path)])
        assert code == 0
        assert "acceptance:" in capsys.readouterr().out
        payload = json.loads((tmp_path / "BENCH_overload.json").read_text())
        assert payload["ok"]

    def test_serve_chaos(self, capsys, tmp_path):
        code = main(["serve-chaos", "--schedules", "2", "--horizon", "0.5",
                     "--results", str(tmp_path)])
        assert code == 0
        assert "all invariants held" in capsys.readouterr().out
        payload = json.loads((tmp_path / "CHAOS_serving.json").read_text())
        assert payload["schedules"] == 2 and payload["ok"]
