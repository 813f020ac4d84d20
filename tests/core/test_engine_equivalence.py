"""The determinism contract, stated once, and the golden fixtures.

Two guarantees, both *bitwise* (``np.array_equal`` / ``==`` on float
lists, never ``approx``):

1. **Cross-mode** — local (k=1), stepped, threaded, fault-free
   elastic, real-process, and ``ssgd`` / ``sagn`` at
   ``staleness_bound=0`` produce identical final parameters, train and
   validation curves at a fixed seed.  Every backend draws per-rank
   batches from ``default_rng([seed, rank])`` and reduces in rank
   order, so the execution mechanism must not leak into the numerics.
   This matrix is the one place the equality is asserted; other files
   test what is particular to their backend.

2. **Golden** — ``tests/golden/engine_golden.npz`` holds final
   parameters and loss curves captured from the pre-engine trainers
   (commit 20df40d; see ``tests/golden/generate_engine_golden.py``).
   The engine must still reproduce those bits exactly.

The golden fixtures are host-generated: a different BLAS/NumPy build
may legitimately produce different bits, so the golden test skips (with
a loud reason) if the *seed* sanity value doesn't match, rather than
failing on an unrelated machine.
"""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.comm.stale import StalenessConfig
from repro.core.elastic import ElasticConfig
from repro.core.engine import (
    EngineConfig,
    LocalBackend,
    SteppedBackend,
    ThreadedBackend,
    TrainingEngine,
)
from repro.core.model import CosmoFlowModel
from repro.core.optimizer import CosmoFlowOptimizer, OptimizerConfig
from repro.core.process_backend import ProcessBackend
from repro.core.stale_backend import StaleBackend
from repro.core.topology import tiny_16
from repro.core.trainer import InMemoryData
from repro.utils.rng import new_rng

GOLDEN = Path(__file__).parent.parent / "golden" / "engine_golden.npz"
OPT = OptimizerConfig(eta0=5e-3, decay_steps=50)
EPOCHS = 3
SEED = 0
#: Fully synchronous staleness: wait for every rank, fold in rank order.
SYNC = StalenessConfig(staleness_bound=0, quarantine_factor=None)


def make_dataset(n, seed=0, size=16):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1, size, size, size)).astype(np.float32)
    y = rng.uniform(0.2, 0.8, size=(n, 3)).astype(np.float32)
    return InMemoryData(x, y)


class CountingData(InMemoryData):
    """Counts the shuffled passes opened over each rank's shard."""

    def __init__(self, x, y, opens=None, rank=None):
        super().__init__(x, y)
        self.opens = opens if opens is not None else Counter()
        self.rank = rank

    def batches(self, batch_size=1, rng=None, shuffle=True):
        if shuffle:
            self.opens[self.rank] += 1
        return super().batches(batch_size, rng=rng, shuffle=shuffle)

    def shard(self, rank, n_ranks):
        base = super().shard(rank, n_ranks)
        return CountingData(base.x, base.y, self.opens, rank)


def make_backend(mode, n_ranks, train=None, val=None, seed=SEED, rng=None, opt=OPT):
    train = train if train is not None else make_dataset(9)
    val = val if val is not None else make_dataset(6, seed=7)
    if mode == "local":
        assert n_ranks == 1
        model = CosmoFlowModel(tiny_16(), seed=seed)
        optimizer = CosmoFlowOptimizer(model.parameter_arrays(), opt)
        return LocalBackend(model, optimizer, train, val_data=val, rng=rng)
    cls, extra = {
        "stepped": (SteppedBackend, {}),
        "threaded": (ThreadedBackend, {}),
        "elastic": (ThreadedBackend, {"elastic": ElasticConfig(timeout_s=10.0)}),
        "process": (ProcessBackend, {}),
        "ssgd": (StaleBackend, {"stale_mode": "ssgd", "staleness": SYNC}),
        "sagn": (StaleBackend, {"stale_mode": "sagn", "staleness": SYNC}),
    }[mode]
    return cls(tiny_16(), train, val_data=val, optimizer_config=opt, n_ranks=n_ranks, **extra)


def run_engine(
    mode, n_ranks, epochs=EPOCHS, seed=SEED, metrics=None, batch_size=1, validate=True,
    **backend_kwargs,
):
    """Train through the engine with the given backend; return
    (flat_params, train_loss, val_loss)."""
    backend = make_backend(mode, n_ranks, seed=seed, **backend_kwargs)
    config = EngineConfig(epochs=epochs, seed=seed, batch_size=batch_size, validate=validate)
    engine = TrainingEngine(backend, config=config, metrics=metrics)
    hist = engine.run()
    return (
        engine.final_model.get_flat_parameters(),
        list(hist.train_loss),
        list(hist.val_loss),
    )


class TestCrossModeBitwise:
    """local(k=1) == stepped == threaded == elastic == process ==
    ssgd == sagn (bound 0), bitwise, at k = 1 and k = 3."""

    @pytest.fixture(scope="class")
    def reference_k1(self):
        return run_engine("local", 1)

    @pytest.mark.parametrize("mode", ["stepped", "threaded", "elastic", "ssgd", "sagn"])
    def test_k1_matches_local(self, mode, reference_k1):
        ref_params, ref_train, ref_val = reference_k1
        params, train, val = run_engine(mode, 1)
        np.testing.assert_array_equal(params, ref_params)
        assert train == ref_train  # bitwise, not approx
        assert val == ref_val

    @pytest.fixture(scope="class")
    def reference_k3(self):
        return run_engine("stepped", 3)

    @pytest.mark.parametrize("mode", ["threaded", "elastic", "process", "ssgd", "sagn"])
    def test_k3_matches_stepped(self, mode, reference_k3, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_REGISTRY", str(tmp_path))
        ref_params, ref_train, ref_val = reference_k3
        params, train, val = run_engine(mode, 3)
        np.testing.assert_array_equal(params, ref_params)
        assert train == ref_train
        assert val == ref_val


class TestSteppedGroupsMatchThreaded:
    """Stepped ranks run as the groups of one pass
    (``CosmoFlowModel.group_loss_and_gradients``).  Uneven shards — 10
    samples over 3 ranks — give groups of unequal size; a per-rank batch
    of 2 also gives groups of 2 and 1 in one step: the epoch's last step
    takes the smaller shards' short last batch."""

    @pytest.mark.parametrize(
        "batch_size, precision", [(1, "fp32"), (2, "fp32"), (1, "fp16")],
        ids=["batch1", "batch2", "fp16"],
    )
    def test_uneven_shards(self, batch_size, precision):
        opt = OptimizerConfig(eta0=5e-3, decay_steps=50, precision=precision)
        runs = [
            run_engine(mode, 3, epochs=2, batch_size=batch_size, train=make_dataset(10), opt=opt)
            for mode in ("stepped", "threaded")
        ]
        (params, train, val), (want_params, want_train, want_val) = runs
        np.testing.assert_array_equal(params, want_params)
        assert train == want_train
        assert val == want_val

    def test_conv_counters_count_the_ranks_calls_once_each(self):
        """With the conv metrics attached, a stepped k = 3 run's FLOP and
        byte counters are three thread ranks' and its call counters a
        third of theirs: one grouped call stands for the ranks' three."""
        from repro.obs import MetricsRegistry
        from repro.primitives import conv3d

        counted = {}
        for mode in ("stepped", "threaded"):
            metrics = MetricsRegistry()
            conv3d.set_metrics(metrics)
            try:
                run_engine(mode, 3, epochs=1, validate=False)
            finally:
                conv3d.set_metrics(None)
            counted[mode] = {
                k: v for k, v in metrics.snapshot().items() if k.startswith("primitives.conv3d.")
            }
        stepped, threaded = counted["stepped"], counted["threaded"]
        assert sorted(stepped) == sorted(threaded) and stepped
        for key, value in threaded.items():
            want = value // 3 if key.endswith(".calls") else value
            assert value % 3 == 0 and stepped[key] == want, key


class TestOneEpochAtBatchTwo:
    """An epoch is one pass over the smallest shard.  10 samples over 3
    ranks at a per-rank batch of 2 are shards of 4, 3 and 3: two steps,
    each rank's pass opened once, and all ten samples drawn per epoch."""

    EPOCHS = 2

    @staticmethod
    def run(mode, n_ranks, train, **kwargs):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        out = run_engine(
            mode, n_ranks, epochs=TestOneEpochAtBatchTwo.EPOCHS, batch_size=2, train=train,
            metrics=metrics, **kwargs,
        )
        return out, metrics

    @pytest.mark.parametrize("mode", ["stepped", "threaded", "ssgd"])
    def test_one_pass_per_epoch(self, mode):
        data = make_dataset(10)
        train = CountingData(data.x, data.y)
        _, metrics = self.run(mode, 3, train, validate=False)
        assert metrics.value("engine.steps") == 2 * self.EPOCHS
        assert dict(train.opens) == {0: self.EPOCHS, 1: self.EPOCHS, 2: self.EPOCHS}
        assert metrics.value("engine.records") == 10 * self.EPOCHS

    def test_process_matches_stepped(self, tmp_path, monkeypatch):
        """7 samples over 2 processes: shards of 4 and 3, two steps.
        (Without validation: the stepped replica averages the whole
        validation set, two ranks average their shards' means.)"""
        monkeypatch.setenv("REPRO_SHM_REGISTRY", str(tmp_path))
        runs = [
            self.run(mode, 2, make_dataset(7), validate=False) for mode in ("stepped", "process")
        ]
        for _, metrics in runs:
            assert metrics.value("engine.steps") == 2 * self.EPOCHS
            assert metrics.value("engine.records") == 7 * self.EPOCHS
        ((params, train, _), _), ((want_params, want_train, _), _) = runs
        np.testing.assert_array_equal(params, want_params)
        assert train == want_train


class TestUnevenValidation:
    """Every mode averages its ranks' own validation means, so stepped
    and bound-0 ``ssgd`` equal threaded ranks bit for bit when the
    validation set does not split evenly over the ranks (5 samples; and
    6, where only the order of the sum differs, at a seed it shows)."""

    @pytest.mark.parametrize("n_val, seed", [(5, 0), (6, 5)])
    def test_val_loss_equal_across_modes(self, n_val, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((8 + n_val, 1, 16, 16, 16)).astype(np.float32)
        y = rng.uniform(0.2, 0.8, size=(8 + n_val, 3)).astype(np.float32)
        train, val = InMemoryData(x[:8], y[:8]), InMemoryData(x[8:], y[8:])
        val_loss = {
            mode: run_engine(mode, 2, epochs=1, seed=seed, train=train, val=val)[2]
            for mode in ("stepped", "threaded", "ssgd")
        }
        assert val_loss["stepped"] == val_loss["threaded"] == val_loss["ssgd"], val_loss


class TestMetricsConsistency:
    """Satellite: observability counters are mode-invariant.

    The :class:`~repro.obs.TraceCallback` counts *global* quantities
    (synchronized optimizer steps, records consumed, epochs), so the
    same workload must report identical totals whichever execution
    backend ran it.  ``engine.rank_steps`` is deliberately excluded —
    it counts per-executing-rank work and scales with the rank count.
    """

    GLOBAL_KEYS = ("engine.steps", "engine.records", "engine.epochs")

    @staticmethod
    def collect(mode, n_ranks):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        run_engine(mode, n_ranks, metrics=metrics)
        return metrics

    @pytest.fixture(scope="class")
    def k1(self):
        return {
            mode: self.collect(mode, 1)
            for mode in ("local", "stepped", "threaded", "elastic")
        }

    @pytest.fixture(scope="class")
    def k3(self):
        return {mode: self.collect(mode, 3) for mode in ("stepped", "threaded", "elastic")}

    @pytest.mark.parametrize("key", GLOBAL_KEYS)
    def test_k1_counters_identical_across_modes(self, k1, key):
        values = {mode: reg.value(key) for mode, reg in k1.items()}
        assert len(set(values.values())) == 1, values

    @pytest.mark.parametrize("key", GLOBAL_KEYS)
    def test_k3_counters_identical_across_modes(self, k3, key):
        values = {mode: reg.value(key) for mode, reg in k3.items()}
        assert len(set(values.values())) == 1, values

    def test_global_records_independent_of_rank_count(self, k1, k3):
        # Records count samples consumed across ALL ranks, so the total
        # is a property of the workload (9 samples x 3 epochs), not of
        # how it was sharded.
        for reg in list(k1.values()) + list(k3.values()):
            assert reg.value("engine.records") == 9 * EPOCHS
            assert reg.value("engine.epochs") == EPOCHS

    def test_aggregation_rounds_match_steps_across_distributed_modes(self, k3):
        # Every synchronized step performs exactly one gradient
        # aggregation in every distributed mode.
        values = {m: reg.value("comm.step_aggregations") for m, reg in k3.items()}
        assert len(set(values.values())) == 1, values
        for mode, reg in k3.items():
            assert values[mode] == reg.value("engine.steps")


class TestGoldenPreRefactor:
    """The engine reproduces fixtures captured from the pre-engine
    trainers: no refactor since has changed a bit."""

    @pytest.fixture(scope="class")
    def golden(self):
        if not GOLDEN.exists():
            pytest.skip("golden fixture not generated on this host")
        return np.load(GOLDEN)

    def _check_host(self, golden):
        # Portability guard built from NumPy and BLAS alone, none of the
        # code under test, so a numerics regression anywhere in it still
        # FAILS — only a different BLAS/NumPy build skips.
        from tests.golden.generate_engine_golden import host_fingerprint

        if "host_fingerprint" in golden and not np.array_equal(
            host_fingerprint(), golden["host_fingerprint"]
        ):
            pytest.skip(
                "golden fixture was generated with a different BLAS/NumPy "
                "build; regenerate tests/golden/engine_golden.npz here"
            )

    def test_local_trainer_matches_pre_refactor(self, golden):
        self._check_host(golden)
        # The pre-engine trainer shuffled from new_rng(seed), seed 9.
        params, train_loss, val_loss = run_engine(
            "local",
            1,
            train=make_dataset(8),
            val=make_dataset(4, seed=7),
            rng=new_rng(9),
        )
        np.testing.assert_array_equal(params, golden["local_params"])
        np.testing.assert_array_equal(train_loss, golden["local_train_loss"])
        np.testing.assert_array_equal(val_loss, golden["local_val_loss"])

    @pytest.mark.parametrize("mode", ["stepped", "threaded", "elastic"])
    def test_distributed_matches_pre_refactor(self, golden, mode):
        self._check_host(golden)
        params, train_loss, val_loss = run_engine(mode, 3)
        np.testing.assert_array_equal(params, golden[f"{mode}_params"])
        np.testing.assert_array_equal(train_loss, golden[f"{mode}_train_loss"])
        np.testing.assert_array_equal(val_loss, golden[f"{mode}_val_loss"])
