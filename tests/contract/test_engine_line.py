"""The engine line of the determinism contract.

The paper's Algorithm 2 is synchronous SGD, so every execution mode ends
a seeded run on the same bits: ``local`` (one rank), ``stepped``,
``threaded``, fault-free ``elastic`` (with warm spares it never uses),
``process``, and ``ssgd`` / ``sagn`` at staleness bound 0.  Each rank
draws its batches from ``default_rng([seed, rank])`` and every mode
reduces in rank order, so the execution mechanism must not leak into the
numbers.

A :class:`Cell` is one configuration: mode x ranks x precision x
compression x per-rank batch x shard layout x validation split.  Each
invariant is written once below, as a function of a cell:

- **E1 bits.** History (train and validation loss, lr, effective batch)
  and the final parameters equal the stepped run's, bit for bit; at
  k = 1 that is also local's.
- **E2 report.** The ``loss_scale*`` and ``compression*`` group stats
  equal threaded's.
- **E2 reductions.** Thread and process ranks make 2 a step (gradients,
  loss), 1 a validated epoch, and the divergence check's 2; stepped and
  stale ranks make 1 a step.
- **E2 fault-free run.** Thread and process ranks: divergence 0, no
  restart, eviction, rejoin or spare; every worker exits 0.
- **E3 counters.** ``engine.{steps,records,epochs}`` and
  ``comm.step_aggregations`` are the workload's, whatever the mode.
- **E3 conv counters.** ``primitives.conv3d.*`` are equal for thread and
  process ranks.  Simulated ranks run as the groups of one pass: the
  same flops and bytes in 1/k of the training calls.
- **E4 second run.** A second ``run()`` of one engine reports the first
  run's History and group stats.

Each engine runs once per cell (twice in ``SECOND_RUN``), and every
invariant that reads it shares the run.  ``TIER1`` runs by default and
the rest of the product under ``-m slow``; ``INFEASIBLE`` names the cells
outside the product and why.  docs/architecture.md ("Determinism
contract") tables all of it.
"""

import hashlib
import itertools
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import pytest

from repro.comm.plugin import PluginConfig
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
from repro.primitives import conv3d
from tests.contract import dataset

ARCHITECTURE = Path(__file__).resolve().parents[2] / "docs" / "architecture.md"
EPOCHS = 2
SEED = 0
MODES = ("local", "stepped", "threaded", "elastic", "process", "ssgd", "sagn")
#: A replica per rank and real collectives between them.
THREAD_RANKS = ("threaded", "elastic", "process")
CURVES = ("train_loss", "val_loss", "lr", "effective_batch")
#: Fully synchronous staleness: wait for every rank, fold in rank order.
SYNC = StalenessConfig(staleness_bound=0, quarantine_factor=None)
#: Grow-back armed and never used.
ELASTIC = ElasticConfig(timeout_s=10.0, spares=2)


@dataclass(frozen=True)
class Cell:
    mode: str
    k: int
    precision: str = "fp32"
    compression: str = "none"
    batch: int = 1
    layout: str = "even"
    validate: bool = True

    @property
    def config(self):
        """The id of the cell's axes but its mode: the cells it is compared with."""
        val = "val" if self.validate else "noval"
        return f"k{self.k}-{self.precision}-{self.compression}-b{self.batch}-{self.layout}-{val}"

    def __str__(self):
        return f"{self.mode}-{self.config}"

    def as_mode(self, mode):
        return replace(self, mode=mode)

    @property
    def n_train(self):
        """Three samples a rank; an uneven layout gives rank 0 one more."""
        return 3 * self.k + (self.layout == "uneven")

    @property
    def n_val(self):
        return 2 * self.k - (self.layout == "uneven")

    @property
    def shards(self):
        n, k = self.n_train, self.k
        return [n // k + (r < n % k) for r in range(k)]

    @property
    def steps_per_epoch(self):
        """One pass over the smallest shard."""
        return -(-min(self.shards) // self.batch)


#: Rule -> (whether a cell breaks it, why such a cell is not in the product).
INFEASIBLE = {
    "local-multirank": (lambda c: c.mode == "local" and c.k > 1, "local is one in-process rank"),
    "local-compressed": (
        lambda c: c.mode == "local" and c.compression != "none",
        "local sends no gradient message, so there is nothing to compress",
    ),
    "uneven-one-rank": (
        lambda c: c.k == 1 and c.layout == "uneven",
        "one rank's shard is the whole set",
    ),
    "local-batched-validation": (
        lambda c: c.mode == "local" and c.batch > 1 and c.validate,
        "local validates in batches of the per-rank batch, every group backend one"
        " sample at a time, so the validation means differ in their last bits",
    ),
}


FULL = tuple(
    cell
    for cell in itertools.starmap(
        Cell,
        itertools.product(
            MODES, (1, 2, 3), ("fp32", "fp16"), ("none", "fp16", "topk"), (1, 2),
            ("even", "uneven"), (True, False),
        ),
    )
    if not any(breaks(cell) for breaks, _ in INFEASIBLE.values())
)

#: Config (its mode left blank) -> the modes tier-1 runs at it.  Four
#: process cells: fp32 at k = 3 with validation, fp16 precision x top-k,
#: fp16 compression, and a per-rank batch of 2 over uneven shards.
TIER1_CONFIGS = {
    Cell("", 1): "local stepped threaded elastic ssgd sagn",
    Cell("", 3, layout="uneven"): "stepped threaded elastic process ssgd sagn",
    Cell("", 2, "fp16", "topk", validate=False): "stepped threaded elastic process ssgd",
    Cell("", 2, compression="fp16", validate=False): "stepped threaded elastic process sagn",
    Cell("", 2, batch=2, layout="uneven", validate=False): "stepped threaded process ssgd sagn",
    Cell("", 3, batch=2, layout="uneven"): "stepped threaded ssgd sagn",
    Cell("", 3, batch=2, validate=False): "stepped threaded ssgd sagn",
    Cell("", 3, "fp16"): "stepped threaded",
    Cell("", 2, compression="topk", layout="uneven"): "stepped threaded elastic ssgd sagn",
}
TIER1 = frozenset(
    config.as_mode(mode) for config, modes in TIER1_CONFIGS.items() for mode in modes.split()
)
#: The cells whose engine runs twice (E4).  Local keeps one context across
#: runs by design, so its History grows with every run.
SECOND_RUN = frozenset(
    c for c in FULL if c.config == "k2-fp32-topk-b1-uneven-val" and c.mode != "local"
)


def cells(applies):
    """The cells an invariant reads: tier-1's by default, the rest of the
    product under ``-m slow``."""
    return [
        pytest.param(c, id=str(c), marks=() if c in TIER1 else pytest.mark.slow)
        for c in FULL
        if applies(c)
    ]


# -- running a cell ----------------------------------------------------------


@dataclass
class Outcome:
    history: dict
    params: str  # SHA-256 of the final flat parameters' bytes
    stats: dict
    counters: dict
    second: "Outcome" = field(default=None, repr=False)


COUNTED = ("engine.steps", "engine.records", "engine.epochs", "comm.step_aggregations")


def backend(cell):
    train = dataset(cell.n_train)
    val = dataset(cell.n_val, seed=7) if cell.validate else None
    opt = OptimizerConfig(eta0=5e-3, decay_steps=50, precision=cell.precision)
    if cell.mode == "local":
        model = CosmoFlowModel(tiny_16(), seed=SEED)
        optimizer = CosmoFlowOptimizer(model.parameter_arrays(), opt)
        return LocalBackend(model, optimizer, train, val_data=val)
    cls, extra = {
        "stepped": (SteppedBackend, {}),
        "threaded": (ThreadedBackend, {}),
        "elastic": (ThreadedBackend, {"elastic": ELASTIC}),
        "process": (ProcessBackend, {}),
        "ssgd": (StaleBackend, {"stale_mode": "ssgd", "staleness": SYNC}),
        "sagn": (StaleBackend, {"stale_mode": "sagn", "staleness": SYNC}),
    }[cell.mode]
    return cls(
        tiny_16(), train, val_data=val, optimizer_config=opt, n_ranks=cell.k,
        plugin_config=PluginConfig(compression=cell.compression), **extra,
    )


def run_once(engine):
    conv3d.set_metrics(engine.metrics)
    try:
        history = engine.run()
    finally:
        conv3d.set_metrics(None)
    counters = {
        name: value
        for name, value in engine.metrics.snapshot().items()
        if name in COUNTED or name.startswith("primitives.conv3d.")
    }
    return Outcome(
        history={name: list(getattr(history, name)) for name in CURVES},
        params=hashlib.sha256(engine.final_model.get_flat_parameters().tobytes()).hexdigest(),
        stats=dict(engine.group_stats),
        counters=counters,
    )


def run(cell):
    config = EngineConfig(epochs=EPOCHS, seed=SEED, batch_size=cell.batch, validate=cell.validate)
    engine = TrainingEngine(backend(cell), config)
    outcome = run_once(engine)
    if cell in SECOND_RUN:
        outcome.second = run_once(engine)
    return outcome


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Cell -> its run's :class:`Outcome`, each cell run once."""
    done = {}

    def outcome(cell):
        if cell not in done:
            done[cell] = run(cell)
        return done[cell]

    with pytest.MonkeyPatch.context() as mp:
        # Where worker processes register their shared-memory segments.
        mp.setenv("REPRO_SHM_REGISTRY", str(tmp_path_factory.mktemp("shm-registry")))
        yield outcome


def assert_same_run(got, want):
    for name in CURVES:  # NaN (no validation) equals NaN here
        np.testing.assert_array_equal(got.history[name], want.history[name], err_msg=name)
    assert got.params == want.params


# -- the invariants ------------------------------------------------------------


@pytest.mark.parametrize("cell", cells(lambda c: c.mode != "stepped"))
def test_e1_bits(cell, runs):
    assert_same_run(runs(cell), runs(cell.as_mode("stepped")))


def reported(outcome):
    return {k: v for k, v in outcome.stats.items() if k.startswith(("loss_scale", "compression"))}


@pytest.mark.parametrize("cell", cells(lambda c: c.mode not in ("local", "threaded")))
def test_e2_report(cell, runs):
    want = reported(runs(cell.as_mode("threaded")))
    assert len(want) == 3 * (cell.precision == "fp16") + 6 * (cell.compression != "none")
    assert reported(runs(cell)) == want


@pytest.mark.parametrize("cell", cells(lambda c: c.mode != "local"))
def test_e2_reductions(cell, runs):
    steps = EPOCHS * cell.steps_per_epoch
    stats = runs(cell).stats
    if cell.mode in THREAD_RANKS:
        # Each step's gradients and loss, each epoch's validation mean, and
        # the divergence check's MAX and MIN at the end.
        assert stats["reductions"] == 2 * steps + EPOCHS * cell.validate + 2
    else:
        assert stats["reductions"] == steps
    if cell.mode in ("ssgd", "sagn"):  # every rank folds in once a step
        assert stats["contributions"] == [steps] * cell.k


@pytest.mark.parametrize("cell", cells(lambda c: c.mode in THREAD_RANKS))
def test_e2_fault_free_run(cell, runs):
    stats = runs(cell).stats
    assert stats["max_param_divergence"] == 0.0
    assert stats["restarts"] == stats["spares_used"] == 0
    assert stats["survivors"] == list(range(cell.k))
    assert stats["failed_ranks"] == stats["evicted_ranks"] == stats["rejoins"] == []
    if cell.mode == "process":
        assert stats["backend"] == "process"
        assert stats["exit_codes"] == {f"{r}.0": 0 for r in range(cell.k)}


@pytest.mark.parametrize("cell", cells(lambda c: True))
def test_e3_counters(cell, runs):
    steps = EPOCHS * cell.steps_per_epoch
    drawn = sum(min(n, cell.steps_per_epoch * cell.batch) for n in cell.shards)
    want = {"engine.steps": steps, "engine.records": EPOCHS * drawn, "engine.epochs": EPOCHS}
    if cell.mode != "local":  # one rank with no communicator aggregates nothing
        want["comm.step_aggregations"] = steps
    assert {k: v for k, v in runs(cell).counters.items() if k in COUNTED} == want


def conv_counters(outcome):
    return {
        k.removeprefix("primitives.conv3d."): v
        for k, v in outcome.counters.items()
        if k.startswith("primitives.conv3d.")
    }


@pytest.mark.parametrize("cell", cells(lambda c: c.mode != "threaded"))
def test_e3_conv_counters(cell, runs):
    got, want = conv_counters(runs(cell)), conv_counters(runs(cell.as_mode("threaded")))
    assert sorted(got) == sorted(want) and len(want) == 9  # 3 passes x calls, flops, bytes
    if cell.mode in THREAD_RANKS:
        assert got == want
        return
    # A training step runs one forward and one weight-gradient call a
    # layer, and validation forwards alone, one call a sample on any mode.
    validation = want["forward.calls"] - want["backward_weights.calls"]
    for key, value in want.items():
        if key == "forward.calls":
            assert got[key] - validation == (value - validation) // cell.k, key
        elif key.endswith(".calls"):
            assert got[key] == value // cell.k and value % cell.k == 0, key
        else:
            assert got[key] == value, key


@pytest.mark.parametrize("cell", cells(lambda c: c in SECOND_RUN))
def test_e4_second_run(cell, runs):
    outcome = runs(cell)
    assert_same_run(outcome.second, outcome)
    assert outcome.second.stats == outcome.stats


def test_the_cell_sets_are_tabled():
    """Tier-1 cells are cells of the product, at most four of them
    process runs, and docs/architecture.md tables each of them (its
    config's row names its mode), the rest of the product, and every
    infeasible rule."""
    assert TIER1 <= set(FULL)
    assert sum(c.mode == "process" for c in TIER1) <= 4
    text = ARCHITECTURE.read_text()
    section = text[text.index("### Determinism contract"):text.index("## The I/O path")]
    rows = {
        line.split("|")[1].strip().strip("`"): line
        for line in section.splitlines()
        if line.startswith("| ")
    }
    for cell in TIER1:
        assert f"`{cell.mode}`" in rows.get(cell.config, ""), str(cell)
    assert "the rest of the product" in rows and set(INFEASIBLE) <= set(rows)
