"""Round trips, crash-safety and integrity guarantees of the checkpoint layer."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro.core.checkpoint import (
    CheckpointCorruptError,
    CheckpointError,
    latest_checkpoint,
    load_checkpoint,
    load_latest_checkpoint,
    save_checkpoint,
    sweep_stale_tmp,
)
from repro.core.model import CosmoFlowModel
from repro.core.optimizer import CosmoFlowOptimizer, OptimizerConfig
from repro.core.topology import ConvSpec, CosmoFlowConfig, tiny_16

MICRO = CosmoFlowConfig(
    name="micro4ckpt",
    input_size=4,
    conv_layers=(ConvSpec(16, 2),),
    fc_sizes=(8,),
    n_outputs=3,
)


def make_model():
    model = CosmoFlowModel(MICRO, seed=0)
    opt = CosmoFlowOptimizer(model.parameter_arrays())
    return model, opt


class TestCheckpoint:
    def test_model_round_trip(self, tmp_path):
        model = CosmoFlowModel(MICRO, seed=1)
        path = save_checkpoint(tmp_path / "ckpt", model)
        assert path.suffix == ".npz"
        clone = CosmoFlowModel(MICRO, seed=2)
        load_checkpoint(path, clone)
        np.testing.assert_array_equal(
            clone.get_flat_parameters(), model.get_flat_parameters()
        )

    def test_optimizer_state_round_trip(self, tmp_path):
        model = CosmoFlowModel(MICRO, seed=1)
        opt = CosmoFlowOptimizer(model.parameter_arrays(), OptimizerConfig())
        x = np.zeros((1, 1, 4, 4, 4), dtype=np.float32)
        y = np.full((1, 3), 0.5, dtype=np.float32)
        for _ in range(3):
            _, grads = model.loss_and_gradients(x, y)
            opt.step(grads)
        path = save_checkpoint(tmp_path / "full", model, opt)

        clone = CosmoFlowModel(MICRO, seed=9)
        clone_opt = CosmoFlowOptimizer(clone.parameter_arrays(), OptimizerConfig())
        load_checkpoint(path, clone, clone_opt)
        assert clone_opt.adam.t == 3
        assert clone_opt.step_count == 3
        for a, b in zip(clone_opt.adam.m, opt.adam.m):
            np.testing.assert_array_equal(a, b)
        # continued training is bitwise identical
        _, g1 = model.loss_and_gradients(x, y)
        _, g2 = clone.loss_and_gradients(x, y)
        opt.step(g1)
        clone_opt.step(g2)
        np.testing.assert_array_equal(
            model.get_flat_parameters(), clone.get_flat_parameters()
        )

    def test_wrong_config_rejected(self, tmp_path):
        model = CosmoFlowModel(MICRO, seed=0)
        path = save_checkpoint(tmp_path / "x", model)
        other = CosmoFlowModel(tiny_16(), seed=0)
        with pytest.raises(ValueError, match="config"):
            load_checkpoint(path, other)

    def test_missing_optimizer_state(self, tmp_path):
        model = CosmoFlowModel(MICRO, seed=0)
        path = save_checkpoint(tmp_path / "noopt", model)
        opt = CosmoFlowOptimizer(model.parameter_arrays())
        with pytest.raises(ValueError, match="optimizer"):
            load_checkpoint(path, model, opt)

    def test_foreign_optimizer_rejected(self, tmp_path):
        model = CosmoFlowModel(MICRO, seed=0)
        foreign = CosmoFlowOptimizer([np.zeros(3, dtype=np.float32)])
        with pytest.raises(ValueError, match="belong"):
            save_checkpoint(tmp_path / "bad", model, foreign)


class TestAtomicSave:
    def test_no_tmp_leftover(self, tmp_path):
        model, opt = make_model()
        path = save_checkpoint(tmp_path / "ckpt", model, opt)
        assert path.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_overwrite_is_atomic_content_swap(self, tmp_path):
        model, opt = make_model()
        path = save_checkpoint(tmp_path / "ckpt", model, opt)
        flat_before = model.get_flat_parameters().copy()
        # Mutate and re-save over the same name.
        model.set_flat_parameters(flat_before + 1.0)
        save_checkpoint(tmp_path / "ckpt", model, opt)
        fresh, fopt = make_model()
        load_checkpoint(path, fresh, fopt)
        np.testing.assert_array_equal(fresh.get_flat_parameters(), flat_before + 1.0)

    def test_roundtrip_with_crc(self, tmp_path):
        model, opt = make_model()
        path = save_checkpoint(tmp_path / "ckpt", model, opt)
        with np.load(path) as data:
            assert "payload_crc32" in data.files
        fresh, fopt = make_model()
        fresh.set_flat_parameters(np.zeros_like(fresh.get_flat_parameters()))
        load_checkpoint(path, fresh, fopt)
        np.testing.assert_array_equal(
            fresh.get_flat_parameters(), model.get_flat_parameters()
        )


class TestCorruptionDetection:
    def test_bitflip_detected(self, tmp_path):
        model, opt = make_model()
        path = save_checkpoint(tmp_path / "ckpt", model, opt)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF  # bit-rot in the middle of the archive
        path.write_bytes(bytes(data))
        fresh, fopt = make_model()
        with pytest.raises(CheckpointCorruptError) as ei:
            load_checkpoint(path, fresh, fopt)
        assert ei.value.path == path

    def test_truncation_detected(self, tmp_path):
        model, opt = make_model()
        path = save_checkpoint(tmp_path / "ckpt", model, opt)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        fresh, fopt = make_model()
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path, fresh, fopt)

    def test_garbage_file_detected(self, tmp_path):
        # Behind a zip signature, so np.load takes the archive path.
        path = tmp_path / "junk.npz"
        path.write_bytes(b"PK\x03\x04not a checkpoint at all")
        model, opt = make_model()
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path, model, opt)

    def test_missing_file_is_not_corruption(self, tmp_path):
        model, _ = make_model()
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "absent.npz", model)

    def test_corrupt_error_is_checkpoint_error(self):
        assert issubclass(CheckpointCorruptError, CheckpointError)
        assert issubclass(CheckpointError, ValueError)


class TestLatestCheckpoint:
    def test_orders_by_name(self, tmp_path):
        model, opt = make_model()
        for step in (3, 12, 7):
            save_checkpoint(tmp_path / f"ckpt-{step:06d}", model, opt)
        latest = latest_checkpoint(tmp_path)
        assert latest is not None
        assert latest.name == "ckpt-000012.npz"

    def test_ignores_tmp_files(self, tmp_path):
        model, opt = make_model()
        save_checkpoint(tmp_path / "ckpt-000001", model, opt)
        (tmp_path / "ckpt-000009.npz.tmp").write_bytes(b"partial")
        latest = latest_checkpoint(tmp_path, pattern="*")
        assert latest.name == "ckpt-000001.npz"

    def test_empty_or_missing_directory(self, tmp_path):
        assert latest_checkpoint(tmp_path) is None
        assert latest_checkpoint(tmp_path / "nope") is None


def corrupt(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


class TestSelfHealingLoad:
    def test_falls_back_to_newest_good_checkpoint(self, tmp_path):
        model, opt = make_model()
        flats = {}
        for step in (1, 2, 3):
            model.set_flat_parameters(
                np.full_like(model.get_flat_parameters(), float(step))
            )
            flats[step] = model.get_flat_parameters().copy()
            save_checkpoint(tmp_path / f"ckpt-{step:06d}", model, opt)
        corrupt(tmp_path / "ckpt-000003.npz")
        fresh, fopt = make_model()
        loaded = load_latest_checkpoint(tmp_path, fresh, fopt)
        assert loaded is not None and loaded.name == "ckpt-000002.npz"
        np.testing.assert_array_equal(fresh.get_flat_parameters(), flats[2])

    def test_corrupt_checkpoint_is_quarantined(self, tmp_path):
        model, opt = make_model()
        for step in (1, 2):
            save_checkpoint(tmp_path / f"ckpt-{step:06d}", model, opt)
        corrupt(tmp_path / "ckpt-000002.npz")
        fresh, fopt = make_model()
        load_latest_checkpoint(tmp_path, fresh, fopt)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["ckpt-000001.npz", "ckpt-000002.npz.corrupt"]
        # The quarantined file is out of every later *.npz scan.
        assert latest_checkpoint(tmp_path).name == "ckpt-000001.npz"

    def test_all_corrupt_returns_none(self, tmp_path):
        model, opt = make_model()
        save_checkpoint(tmp_path / "ckpt-000001", model, opt)
        corrupt(tmp_path / "ckpt-000001.npz")
        fresh, fopt = make_model()
        assert load_latest_checkpoint(tmp_path, fresh, fopt) is None

    def test_empty_or_missing_directory(self, tmp_path):
        model, _ = make_model()
        assert load_latest_checkpoint(tmp_path, model) is None
        assert load_latest_checkpoint(tmp_path / "nope", model) is None


def _kill_between_write_and_rename(directory, name):
    """Run a real saver process SIGKILLed between tmp write and rename.

    ``os.replace`` is swapped for a self-SIGKILL inside the child, so
    the temp file is fully written and fsync'd but never moved into
    place — the exact crash window atomic saves protect against.
    Returns the child's pid.
    """
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    script = textwrap.dedent(
        """
        import os, signal, sys
        from repro.core.checkpoint import save_checkpoint
        from repro.core.model import CosmoFlowModel
        from repro.core.topology import ConvSpec, CosmoFlowConfig

        cfg = CosmoFlowConfig(
            name="micro4ckpt", input_size=4,
            conv_layers=(ConvSpec(16, 2),), fc_sizes=(8,), n_outputs=3,
        )
        model = CosmoFlowModel(cfg, seed=0)
        os.replace = lambda a, b: os.kill(os.getpid(), signal.SIGKILL)
        save_checkpoint(sys.argv[1], model)
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(directory / name)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == -9, proc.stderr  # died to SIGKILL, not an error
    return proc


class TestCrashWindow:
    """A writer SIGKILLed between tmp write and rename leaves only debris."""

    def test_orphan_tmp_never_shadows_previous_checkpoint(self, tmp_path):
        model, opt = make_model()
        good = model.get_flat_parameters().copy()
        save_checkpoint(tmp_path / "ckpt-000001", model, opt)

        _kill_between_write_and_rename(tmp_path, "ckpt-000002")
        orphans = list(tmp_path.glob("*.tmp"))
        assert len(orphans) == 1  # the crash really left debris behind
        assert not (tmp_path / "ckpt-000002.npz").exists()

        fresh, fopt = make_model()
        loaded = load_latest_checkpoint(tmp_path, fresh, fopt)
        assert loaded is not None and loaded.name == "ckpt-000001.npz"
        np.testing.assert_array_equal(fresh.get_flat_parameters(), good)
        # Recovery swept the dead writer's temp file.
        assert list(tmp_path.glob("*.tmp")) == []

    def test_sweep_removes_only_dead_writers_debris(self, tmp_path):
        _kill_between_write_and_rename(tmp_path, "ckpt-000001")
        # A live writer's temp file (ours) must survive the sweep.
        live = tmp_path / f"ckpt-000009.npz.{os.getpid()}-1.tmp"
        live.write_bytes(b"in-flight save")
        # Foreign debris without a parseable pid is not ours to judge.
        foreign = tmp_path / "ckpt-000008.npz.tmp"
        foreign.write_bytes(b"unknown writer")

        removed = sweep_stale_tmp(tmp_path)
        assert len(removed) == 1 and "-" in removed[0].name
        assert live.exists()
        assert foreign.exists()

    def test_sweep_missing_directory_is_noop(self, tmp_path):
        assert sweep_stale_tmp(tmp_path / "nope") == []

