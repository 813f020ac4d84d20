"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for cmd in ("simulate", "train", "predict", "topology", "scaling",
                    "faultsim", "stage", "serve"):
            args = {
                "simulate": ["simulate", "--out", "x"],
                "train": ["train", "--data", "x"],
                "predict": ["predict", "--data", "x", "--checkpoint", "y"],
                "topology": ["topology"],
                "scaling": ["scaling"],
                "faultsim": ["faultsim"],
                "stage": ["stage", "--data", "x", "--bb-dir", "y"],
                "serve": ["serve"],
            }[cmd]
            parsed = parser.parse_args(args)
            assert parsed.command == cmd

    def test_train_mode_flags(self):
        parser = build_parser()
        parsed = parser.parse_args(["train", "--data", "x"])
        assert parsed.mode == "local" and parsed.ranks == 2
        parsed = parser.parse_args(
            ["train", "--data", "x", "--mode", "stepped", "--ranks", "3"]
        )
        assert parsed.mode == "stepped" and parsed.ranks == 3
        with pytest.raises(SystemExit):
            parser.parse_args(["train", "--data", "x", "--mode", "horse"])

    def test_mode_table_names_every_backend(self):
        """The one place a mode is a string: seven ``train --mode``
        values, and ``faultsim --backend`` read through the same table."""
        from repro import cli
        from repro.core import engine, process_backend, stale_backend

        assert {mode: cli._backend_class(mode) for mode in cli._BACKENDS} == {
            "local": engine.LocalBackend,
            "stepped": engine.SteppedBackend,
            "threaded": engine.ThreadedBackend,
            "process": process_backend.ProcessBackend,
            "elastic": engine.ThreadedBackend,
            "ssgd": stale_backend.StaleBackend,
            "sagn": stale_backend.StaleBackend,
        }
        assert {
            name: cli._backend_class(mode) for name, mode in cli._FAULTSIM_MODES.items()
        } == {
            "threaded": engine.ThreadedBackend,
            "process": process_backend.ProcessBackend,
        }
        parser = build_parser()
        for mode in cli._BACKENDS:
            assert parser.parse_args(["train", "--data", "x", "--mode", mode]).mode == mode
        for name in cli._FAULTSIM_MODES:
            assert parser.parse_args(["faultsim", "--backend", name]).backend == name

    @pytest.mark.parametrize(
        "argv", [["train", "--data", "x", "--conv-impl", "gemm"], ["tune", "show"]]
    )
    def test_kernel_selection_surface_is_gone(self, argv):
        """One kernel family: no flag to pick another, no tuner to warm."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2


class TestCommands:
    def test_topology(self, capsys):
        assert main(["topology", "tiny_16"]) == 0
        out = capsys.readouterr().out
        assert "69,763 parameters" in out

    def test_topology_default_is_paper(self, capsys):
        assert main(["topology"]) == 0
        assert "7,081,523" in capsys.readouterr().out

    def test_topology_unknown_preset(self):
        with pytest.raises(SystemExit):
            main(["topology", "resnet50"])

    def test_scaling_table(self, capsys):
        assert main(["scaling", "--machine", "cori_bb", "--max-nodes", "256"]) == 0
        out = capsys.readouterr().out
        assert "256" in out and "efficiency" in out

    def test_full_workflow(self, tmp_path, capsys):
        """simulate -> train -> predict through the CLI."""
        ds = tmp_path / "ds"
        ckpt = tmp_path / "model"
        assert (
            main(
                [
                    "simulate", "--out", str(ds), "--sims", "8",
                    "--particle-grid", "32", "--histogram-grid", "32",
                    "--box-size", "64",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "train", "--data", str(ds), "--epochs", "2",
                    "--checkpoint", str(ckpt),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "epoch 2" in out and "checkpoint" in out
        assert main(["predict", "--data", str(ds), "--checkpoint", str(ckpt) + ".npz"]) == 0
        out = capsys.readouterr().out
        assert "relative errors" in out

class TestStageCommand:
    @pytest.fixture()
    def record_dir(self, tmp_path):
        from repro.io.dataset import write_dataset

        rng = np.random.default_rng(0)
        vols = rng.standard_normal((8, 1, 4, 4, 4)).astype(np.float32)
        tgts = rng.random((8, 3)).astype(np.float32)
        write_dataset(tmp_path / "data", vols, tgts, samples_per_file=4)
        return tmp_path

    def test_stage_clean(self, record_dir, capsys):
        rc = main([
            "stage", "--data", str(record_dir / "data"),
            "--bb-dir", str(record_dir / "bb"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "staged 2/2 shards" in out
        assert "8 records delivered, 0 skipped" in out

    def test_stage_under_faults_still_succeeds(self, record_dir, capsys):
        rc = main([
            "stage", "--data", str(record_dir / "data"),
            "--bb-dir", str(record_dir / "bb"),
            "--stage-fail-rate", "0.4", "--target-slow-rate", "0.4",
            "--bb-evict-rate", "0.2", "--hedge-budget-ms", "50",
            "--breaker-reset-s", "0.5", "--seed", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "8 records delivered" in out
        assert "faults fired" in out

    def test_stage_strict_corrupt_source_fails_cleanly(self, record_dir, capsys):
        # Bit-rot a source record: strict mode must print FAILED and
        # return 1 — never a traceback — so CI can assert on it.
        shard = sorted((record_dir / "data").glob("*.rec"))[0]
        data = bytearray(shard.read_bytes())
        data[30] ^= 0xFF
        shard.write_bytes(bytes(data))
        rc = main([
            "stage", "--data", str(record_dir / "data"),
            "--bb-dir", str(record_dir / "bb"), "--strict",
        ])
        assert rc == 1
        assert "FAILED" in capsys.readouterr().out

    def test_stage_empty_dir_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no record files"):
            main(["stage", "--data", str(tmp_path), "--bb-dir", str(tmp_path / "bb")])

    def test_stage_unknown_split_exits(self, tmp_path):
        from repro.cosmo.dataset_builder import SimulationConfig
        from repro.io.manifest import write_simulation_dataset

        write_simulation_dataset(
            tmp_path / "ds", n_sims=4,
            config=SimulationConfig(
                particle_grid=16, histogram_grid=16, box_size=32.0
            ),
            seed=0,
        )
        with pytest.raises(SystemExit, match="split"):
            main([
                "stage", "--data", str(tmp_path / "ds"), "--split", "bogus",
                "--bb-dir", str(tmp_path / "bb"),
            ])


class TestFaultsimExitCodes:
    def test_clean_run_exits_zero(self, capsys):
        rc = main([
            "faultsim", "--ranks", "2", "--epochs", "1", "--samples", "4",
            "--crash-rate", "0",
        ])
        assert rc == 0
        assert "survivors" in capsys.readouterr().out

    def test_unrecovered_quorum_loss_exits_nonzero(self, capsys):
        # Every rank crashes at step 0 and there is no checkpoint dir:
        # CI must see a nonzero exit and a FAILED line, not a traceback.
        rc = main([
            "faultsim", "--ranks", "2", "--epochs", "1", "--samples", "4",
            "--crash-rate", "1.0", "--timeout", "2",
        ])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAILED: unrecovered quorum loss" in out
        assert "--checkpoint-dir" in out

    def test_infeasible_recovery_schedule_exits_two(self, capsys):
        # --recover-after pushing every rejoin past the run's last step
        # is a plan that can never do what was asked: refuse to run.
        rc = main([
            "faultsim", "--ranks", "2", "--epochs", "1", "--samples", "8",
            "--crash-rate", "0.3", "--seed", "3", "--recover-after", "50",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "infeasible fault plan" in err
        assert "never be admitted" in err

    def test_feasible_recovery_schedule_runs(self, capsys):
        rc = main([
            "faultsim", "--ranks", "4", "--epochs", "1", "--samples", "16",
            "--crash-rate", "0.15", "--seed", "1", "--recover-after", "1",
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "rejoins: [2, 3]" in captured.out

    def test_negative_spares_rejected(self):
        with pytest.raises(SystemExit):
            main([
                "faultsim", "--ranks", "2", "--epochs", "1", "--samples", "4",
                "--spares", "-1",
            ])


class TestServeCommand:
    BASE = [
        "serve", "--replicas", "2", "--spares", "1", "--requests", "80",
        "--rate", "200", "--unique", "1000", "--seed", "7",
    ]

    def test_clean_serve_exits_zero(self, capsys):
        rc = main(self.BASE)
        assert rc == 0
        out = capsys.readouterr().out
        assert "serving tier:" in out and "dropped 0" in out

    def test_crash_failover_zero_dropped(self, tmp_path, capsys):
        report = tmp_path / "serve.json"
        rc = main(self.BASE + [
            "--crash-at", "3", "--report", str(report),
            "--p99-budget-ms", "500",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "crashes: 1" in out
        import json

        doc = json.loads(report.read_text())
        assert doc["report"]["dropped"] == 0
        assert doc["report"]["crashes"] == 1
        assert doc["latency_histogram"]["p99"] > 0

    def test_p99_budget_violation_exits_nonzero(self, capsys):
        rc = main(self.BASE + ["--p99-budget-ms", "0.000001"])
        assert rc == 1
        assert "FAILED: served p99" in capsys.readouterr().out

    def test_trace_roundtrips_through_summarize(self, tmp_path, capsys):
        trace = tmp_path / "serve_trace.json"
        assert main(self.BASE + ["--trace", str(trace)]) == 0
        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "admit" in out


class TestCommandsSlow:
    def test_train_preset_mismatch(self, tmp_path):
        ds = tmp_path / "small"
        main(
            [
                "simulate", "--out", str(ds), "--sims", "4",
                "--particle-grid", "16", "--histogram-grid", "16",
                "--box-size", "32",
            ]
        )
        with pytest.raises(SystemExit, match="expects"):
            main(["train", "--data", str(ds), "--preset", "tiny_16", "--epochs", "1"])

    def test_train_trace_prints_conv_counters(self, tmp_path, capsys):
        """--trace attaches the conv kernels' call counters for the run."""
        ds = tmp_path / "ds"
        assert (
            main(
                [
                    "simulate", "--out", str(ds), "--sims", "6",
                    "--particle-grid", "16", "--histogram-grid", "32",
                    "--box-size", "32",
                ]
            )
            == 0
        )
        capsys.readouterr()
        trace = tmp_path / "trace.json"
        assert (
            main(
                [
                    "train", "--data", str(ds), "--preset", "tiny_16",
                    "--epochs", "1", "--trace", str(trace),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "primitives.conv3d.forward.calls" in out
        # The kernels' registry detached after the run.
        from repro.primitives import conv3d

        assert conv3d.get_metrics() is None

    def test_train_distributed_modes(self, tmp_path, capsys):
        """The train command drives every engine backend via --mode."""
        ds = tmp_path / "ds"
        assert (
            main(
                [
                    "simulate", "--out", str(ds), "--sims", "8",
                    "--particle-grid", "16", "--histogram-grid", "32",
                    "--box-size", "32",
                ]
            )
            == 0
        )
        capsys.readouterr()
        for mode in ("stepped", "elastic"):
            assert (
                main(
                    [
                        "train", "--data", str(ds), "--preset", "tiny_16",
                        "--epochs", "1", "--mode", mode, "--ranks", "2",
                    ]
                )
                == 0
            )
            out = capsys.readouterr().out
            assert f"mode: {mode}  ranks: 2" in out
            assert "reductions:" in out
        with pytest.raises(SystemExit, match="cannot feed"):
            main(
                [
                    "train", "--data", str(ds), "--preset", "tiny_16",
                    "--epochs", "1", "--mode", "stepped", "--ranks", "64",
                ]
            )
