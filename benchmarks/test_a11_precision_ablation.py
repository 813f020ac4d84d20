"""A11 ablation — accuracy vs precision across the low-precision stack.

Section IV of the paper trains in single precision; this ablation
quantifies what each lower-precision rung costs (or doesn't) on the F5
synthetic-universe setup:

* **fp16 training** — fp32 master weights + dynamic loss scaling.  We
  start the loss scale at its ceiling (2^24) so the very first steps
  *must* overflow: the scaler has to detect the infs, skip the updates,
  back the scale off, and recover — and the final loss must still land
  within 1% of the fp32 run.
* **int8 / int4 inference** — the fp32-trained model evaluated through
  the quantized blocked GEMM kernels (weights quantized per group,
  activations in fp32).
* **top-k compressed allreduce** — k = 10% sparsified gradient exchange
  with error feedback; wire bytes must drop >= 5x versus dense fp32.

Everything is seeded; the fp16 run is executed twice and must replay
bitwise.
"""

import numpy as np
import pytest

from benchmarks.conftest import save_report
from repro.comm.plugin import PluginConfig
from repro.core.engine import EngineConfig, SteppedBackend, TrainingEngine
from repro.core.optimizer import OptimizerConfig
from repro.core.topology import tiny_16
from repro.core.trainer import InMemoryData
from repro.primitives import registry

RANKS = 8
EPOCHS = 2


def final_train_loss(model, train):
    return float(
        np.mean([model.validation_loss(x, y) for x, y in train.batches(8, shuffle=False)])
    )


def run_variant(train, train_eval, val, *, precision="fp32", compression="none",
                loss_scale_init=None, topk_fraction=0.1):
    steps = EPOCHS * (len(train) // RANKS)
    opt = dict(eta0=2e-3, eta_min=1e-4, decay_steps=steps, precision=precision)
    if loss_scale_init is not None:
        opt["loss_scale_init"] = loss_scale_init
    backend = SteppedBackend(
        tiny_16(),
        train,
        val_data=val,
        optimizer_config=OptimizerConfig(**opt),
        n_ranks=RANKS,
        plugin_config=PluginConfig(compression=compression, topk_fraction=topk_fraction),
    )
    engine = TrainingEngine(backend, EngineConfig(epochs=EPOCHS))
    engine.run()
    return {
        "engine": engine,
        "final": final_train_loss(engine.final_model, train_eval),
        "val": engine.history.val_loss[-1],
        "stats": dict(engine.group_stats),
    }


def quantized_eval(model, train, impl):
    prev = registry.get_default_impl()
    registry.set_default_impl(impl)
    try:
        return final_train_loss(model, train)
    finally:
        registry.set_default_impl(prev)


@pytest.fixture(scope="module")
def runs(cosmo_dataset):
    xtr, ytr, _ = cosmo_dataset["train"]
    xv, yv, _ = cosmo_dataset["val"]
    train = InMemoryData(xtr, ytr, augment=True)
    # Final losses are measured on an *unaugmented* view: augmentation
    # draws fresh random symmetries per pass, which would make the
    # measurement itself nondeterministic.
    train_eval = InMemoryData(xtr, ytr)
    val = InMemoryData(xv, yv)

    fp32 = run_variant(train, train_eval, val)
    # Start the scale at its ceiling: the first steps are guaranteed to
    # overflow, exercising detect -> skip -> backoff -> recover.
    fp16 = run_variant(train, train_eval, val, precision="fp16",
                       loss_scale_init=2.0**24)
    fp16_replay = run_variant(train, train_eval, val, precision="fp16",
                              loss_scale_init=2.0**24)
    topk = run_variant(train, train_eval, val, compression="topk",
                       topk_fraction=0.1)

    quant = {
        impl: quantized_eval(fp32["engine"].final_model, train_eval, impl)
        for impl in ("int8", "int4")
    }
    return {"train": train, "fp32": fp32, "fp16": fp16,
            "fp16_replay": fp16_replay, "topk": topk, "quant": quant}


def test_precision_ablation(runs, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # timing done in fixture

    fp32, fp16, topk = runs["fp32"], runs["fp16"], runs["topk"]
    scaler = fp16["stats"]

    rel = abs(fp16["final"] - fp32["final"]) / fp32["final"]
    wire_saving = (
        topk["stats"]["compression_bytes_in"] / topk["stats"]["compression_bytes_wire"]
    )

    lines = [
        f"A11 ablation: accuracy vs precision ({RANKS} ranks, {EPOCHS} epochs)",
        f"{'variant':<28}{'final train':>12}{'final val':>12}",
        f"{'fp32 (paper path)':<28}{fp32['final']:>12.4f}{fp32['val']:>12.4f}",
        f"{'fp16 + loss scaling':<28}{fp16['final']:>12.4f}{fp16['val']:>12.4f}",
        f"{'fp32 + top-k 10% comm':<28}{topk['final']:>12.4f}{topk['val']:>12.4f}",
        f"{'int8 inference (fp32 run)':<28}{runs['quant']['int8']:>12.4f}",
        f"{'int4 inference (fp32 run)':<28}{runs['quant']['int4']:>12.4f}",
        "",
        f"fp16 vs fp32 final-loss gap: {100 * rel:.3f}% (criterion < 1%)",
        f"fp16 overflow steps skipped: {scaler['loss_scale_skipped_steps']:.0f} "
        f"(final scale {scaler['loss_scale']:.0f}, overflows "
        f"{scaler['loss_scale_overflows']:.0f})",
        f"top-k wire bytes: {topk['stats']['compression_bytes_wire']:.3e} vs "
        f"dense {topk['stats']['compression_bytes_in']:.3e} "
        f"({wire_saving:.1f}x saving)",
    ]
    save_report("a11_precision_ablation", "\n".join(lines))

    # fp16 parity: within 1% relative of the fp32 final loss, with at
    # least one injected-overflow step skipped and the run recovered
    # (scale backed off from the 2^24 ceiling, losses finite).
    assert rel < 0.01
    assert scaler["loss_scale_skipped_steps"] >= 1
    assert scaler["loss_scale"] < 2.0**24
    assert np.isfinite(fp16["final"])

    # Quantized inference stays in the same loss regime as fp32 (int4
    # is allowed more slack than int8).
    assert abs(runs["quant"]["int8"] - fp32["final"]) <= 0.05 * fp32["final"] + 0.05
    assert abs(runs["quant"]["int4"] - fp32["final"]) <= 0.25 * fp32["final"] + 0.25

    # Top-k at k=10% must cut wire bytes by at least 5x.
    assert wire_saving >= 5.0
    assert topk["stats"]["compression"] == "topk"


def test_fp16_replay_is_deterministic(runs):
    a, b = runs["fp16"], runs["fp16_replay"]
    assert a["final"] == b["final"]
    assert a["stats"]["loss_scale"] == b["stats"]["loss_scale"]
    assert (
        a["stats"]["loss_scale_skipped_steps"] == b["stats"]["loss_scale_skipped_steps"]
    )
    np.testing.assert_array_equal(
        a["engine"].final_model.get_flat_parameters(),
        b["engine"].final_model.get_flat_parameters(),
    )
