"""Kernel and layer probes: the per-layer metrics no span tree can give.

Per-convolution backward passes cannot be separated from outside the tape, and
several layers (real-thread ranks, the prefetch pipeline, the serve simulation)
are not in any gated workload, so they are timed here by calling the public
functions directly.  Every timed probe interleaves calibration ticks and is
speed-corrected by the mean of its own ticks, except the *raw* probes that run
program threads, during which a tick must not run.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from bench.measure import slowdown
from bench.tick import Ticker

__all__ = ["run_all"]

#: Timed calls per kernel shape, at least.
KERNEL_CALLS = 30
#: ... and every probe keeps calling until it has been busy this long: one
#: 10 ms preemption inside a 15 ms window moved a small kernel's mean by 60 %.
MIN_BUSY_S = 0.15
_MIN_TICKS = 3


class _Prober:
    """Times callables with interleaved ticks; collects metrics and checks."""

    def __init__(self) -> None:
        self.ticker = Ticker()
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def seconds_per_call(self, fn: Callable[[], object], min_calls: int, warmup: int = 2) -> float:
        """Speed-corrected mean seconds per call of ``fn``, over at least
        ``min_calls`` calls and ``MIN_BUSY_S`` of busy time."""
        for _ in range(warmup):
            fn()
        ticker = self.ticker
        first_tick, base_s, busy_s, calls = len(ticker.ticks_s), ticker.total_s, 0.0, 0
        while calls < min_calls or busy_s < MIN_BUSY_S:
            t0 = time.perf_counter()
            fn()
            busy_s += time.perf_counter() - t0
            calls += 1
            ticker.top_up(busy_s, base_s)
        while len(ticker.ticks_s) - first_tick < _MIN_TICKS:
            ticker.tick()
        self.attempted += calls
        return busy_s / calls / slowdown(ticker.ticks_s[first_tick:])

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)


def _conv_inputs(model, x):
    """Each conv layer's (and the first pool's) actual input, by running the
    network layer by layer."""
    from repro.tensor.tensor import Tensor, no_grad

    inputs = {}
    with no_grad():
        t = Tensor(x)
        for layer in model.network:
            inputs[layer.name] = t.data
            t = layer(t)
    return inputs


def probe_primitives(p: _Prober, seed: int) -> None:
    """Default-registry conv kernels at each preset's layer shapes, batch 1."""
    from repro.core import flops
    from repro.core.model import CosmoFlowModel
    from repro.core.topology import scaled_32, tiny_16
    from repro.primitives import avg_pool3d_backward, avg_pool3d_forward, get_impl

    kernels = get_impl()
    rng = np.random.default_rng(seed)
    for tag, preset in (("s32", scaled_32), ("t16", tiny_16)):
        config = preset()
        model = CosmoFlowModel(config, seed=seed)
        s = config.input_size
        x = rng.standard_normal((1, 1, s, s, s)).astype(np.float32)
        inputs = _conv_inputs(model, x)
        seconds = {"fwd": 0.0, "bwd_data": 0.0, "bwd_weights": 0.0}
        for i, layer in enumerate((l for l in model.network if l.name.startswith("conv")), 1):
            xin, w, b = inputs[layer.name], layer.weight.data, layer.bias.data
            out = kernels.forward(xin, w, b, 1, 0)
            grad = rng.standard_normal(out.shape).astype(np.float32)
            base = f"primitives.{tag}.conv{i}"
            fwd = p.seconds_per_call(lambda: kernels.forward(xin, w, b, 1, 0), KERNEL_CALLS)
            bww = p.seconds_per_call(
                lambda: kernels.backward_weights(xin, grad, w.shape[2:], 1, 0, with_bias=True),
                KERNEL_CALLS,
            )
            p.metrics[f"{base}.fwd_ms"] = fwd * 1e3
            p.metrics[f"{base}.bwd_weights_ms"] = bww * 1e3
            seconds["fwd"] += fwd
            seconds["bwd_weights"] += bww
            if i > 1:  # conv1's input needs no gradient
                bwd = p.seconds_per_call(
                    lambda: kernels.backward_data(grad, w, xin.shape[2:], 1, 0), KERNEL_CALLS
                )
                p.metrics[f"{base}.bwd_data_ms"] = bwd * 1e3
                seconds["bwd_data"] += bwd
        if tag != "s32":
            continue
        # Flop counts are computed (repro.core.flops), not measured.
        costs = [c for c in flops.network_costs(config) if c.kind == "conv"]
        p.metrics["primitives.s32.gflops_fwd"] = sum(c.fwd_flops for c in costs) / seconds["fwd"] / 1e9
        p.metrics["primitives.s32.gflops_bwd_data"] = (
            sum(c.bwd_data_flops for c in costs) / seconds["bwd_data"] / 1e9
        )
        p.metrics["primitives.s32.gflops_bwd_weights"] = (
            sum(c.bwd_weight_flops for c in costs) / seconds["bwd_weights"] / 1e9
        )
        pool_in = inputs["pool1"]
        pooled = avg_pool3d_forward(pool_in, 2)
        p.metrics["primitives.s32.pool_fwd_ms"] = 1e3 * p.seconds_per_call(
            lambda: avg_pool3d_forward(pool_in, 2), KERNEL_CALLS
        )
        p.metrics["primitives.s32.pool_bwd_ms"] = 1e3 * p.seconds_per_call(
            lambda: avg_pool3d_backward(pooled, pool_in.shape[2:], 2), KERNEL_CALLS
        )


def probe_model(p: _Prober, seed: int, workdir: Path) -> None:
    """Tape overhead, batch-1 predict and checkpoint I/O on ``scaled_32``."""
    from repro.core.checkpoint import load_checkpoint, save_checkpoint
    from repro.core.model import CosmoFlowModel
    from repro.core.optimizer import CosmoFlowOptimizer
    from repro.core.topology import scaled_32
    from repro.tensor.tensor import no_grad

    model = CosmoFlowModel(scaled_32(), seed=seed)
    x = np.random.default_rng(seed).standard_normal((1, 1, 32, 32, 32)).astype(np.float32)

    def untaped():
        with no_grad():
            model.forward(x)

    taped = p.seconds_per_call(lambda: model.forward(x), KERNEL_CALLS)
    p.metrics["tensor.s32.tape_overhead_ms"] = (taped - p.seconds_per_call(untaped, KERNEL_CALLS)) * 1e3
    p.metrics["serve.predict_ms_batch1.s32"] = 1e3 * p.seconds_per_call(
        lambda: model.predict(x), KERNEL_CALLS
    )
    optimizer = CosmoFlowOptimizer(model.parameter_arrays())
    path = workdir / "probe.npz"
    p.metrics["core.checkpoint.save_ms"] = 1e3 * p.seconds_per_call(
        lambda: save_checkpoint(path, model, optimizer), 10
    )
    p.metrics["core.checkpoint.load_ms"] = 1e3 * p.seconds_per_call(
        lambda: load_checkpoint(path, model, optimizer), 10
    )


def probe_comm(p: _Prober, seed: int, small_data) -> None:
    """Allreduce schedules and compressors on 1 MB; two real-thread ranks."""
    from repro.comm import ALLREDUCE_ALGORITHMS, ReduceOp, make_compressor
    from repro.core.engine import EngineConfig, LocalBackend, ThreadedBackend, TrainingEngine
    from repro.core.model import CosmoFlowModel
    from repro.core.optimizer import CosmoFlowOptimizer
    from repro.core.topology import tiny_16

    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(262_144).astype(np.float32) for _ in range(4)]
    short = {"ring": "ring", "halving_doubling": "halving", "reduce_broadcast": "reduce_bcast"}
    for algorithm, schedule in ALLREDUCE_ALGORITHMS.items():
        base = f"comm.allreduce.{short[algorithm]}"
        p.metrics[f"{base}_ms_1mb_4r"] = 1e3 * p.seconds_per_call(
            lambda: schedule(arrays, ReduceOp.MEAN), 10
        )
        p.metrics[f"{base}_messages"] = len(schedule(arrays, ReduceOp.MEAN).messages)
    for mode in ("fp16", "topk"):
        compressor = make_compressor(mode)
        p.metrics[f"comm.compress.{mode}_ms_1mb"] = 1e3 * p.seconds_per_call(
            lambda: compressor.compress(arrays[0]), 20
        )

    # Raw, untick-ed: two program threads on two vCPUs drift between speed
    # regimes inside one run (10-13 % measured), so this is informational.
    config = EngineConfig(epochs=2, batch_size=1, seed=seed, validate=False)
    steps = config.epochs * (len(small_data) // 2)
    engine = TrainingEngine(ThreadedBackend(tiny_16(), small_data, n_ranks=2), config)
    t0 = time.perf_counter()
    engine.run()
    threaded_s = time.perf_counter() - t0
    model = CosmoFlowModel(tiny_16(), seed=seed)
    local = TrainingEngine(
        LocalBackend(model, CosmoFlowOptimizer(model.parameter_arrays()), small_data), config
    )
    t0 = time.perf_counter()
    local.run()
    local_s = time.perf_counter() - t0
    samples = config.epochs * len(small_data)
    p.metrics["comm.threaded2.step_ms"] = threaded_s / steps * 1e3
    p.metrics["comm.threaded2.samples_per_s_vs_1rank"] = local_s / threaded_s
    p.metrics["comm.threaded2.allreduce_calls_per_step"] = engine.group_stats["reductions"] / steps
    p.attempted += steps + samples


def probe_io(p: _Prober, seed: int, workdir: Path) -> None:
    """Record codec and file I/O, an unstaged epoch, hot staged reads and the
    one-thread prefetch pipeline, on 32 samples of 32^3 in 4 files."""
    from repro.cosmo import SimulationConfig, build_arrays
    from repro.io import (
        PrefetchPipeline,
        RecordDataset,
        StagingManager,
        decode_sample,
        encode_sample,
        read_record_file,
        write_dataset,
        write_record_file,
    )

    x, y, _ = build_arrays(4, SimulationConfig(particle_grid=64, histogram_grid=64), seed=seed)
    sample_mb = x[0].nbytes / 1e6
    payload = encode_sample(x[0], y[0])
    p.metrics["io.records.encode_mb_s"] = sample_mb / p.seconds_per_call(
        lambda: encode_sample(x[0], y[0]), 50
    )
    p.metrics["io.records.decode_mb_s"] = sample_mb / p.seconds_per_call(
        lambda: decode_sample(payload), 50
    )
    one_file = workdir / "probe_one.rec"
    file_mb = 8 * sample_mb
    p.metrics["io.records.write_mb_s"] = file_mb / p.seconds_per_call(
        lambda: write_record_file(one_file, x[:8], y[:8]), 10
    )
    p.metrics["io.records.read_mb_s"] = file_mb / p.seconds_per_call(
        lambda: read_record_file(one_file), 10
    )

    paths = write_dataset(workdir / "probe_records", x, y, samples_per_file=8)
    epoch_mb = len(x) * sample_mb
    dataset = RecordDataset(paths)

    def epoch(source):
        rng = np.random.default_rng(seed)
        return sum(len(bx) for bx, _ in source.batches(4, rng=rng, shuffle=True))

    p.metrics["io.dataset.epoch_mb_s"] = epoch_mb / p.seconds_per_call(lambda: epoch(dataset), 5, warmup=1)
    manager = StagingManager(workdir / "probe_bb", seed=seed)
    manager.stage_all(paths)
    p.metrics["io.staging.read_us"] = 1e6 * p.seconds_per_call(
        lambda: [manager.read(path) for path in paths], 200
    ) / len(paths)

    # Raw: the I/O thread is alive while the epoch runs, so no ticks.
    pipeline = PrefetchPipeline(dataset, n_io_threads=1)
    epochs = 5
    t0 = time.perf_counter()
    delivered = sum(epoch(pipeline) for _ in range(epochs))
    elapsed = time.perf_counter() - t0
    p.check(delivered == epochs * len(x), f"pipeline delivered {delivered} samples")
    p.metrics["io.pipeline.epoch_mb_s"] = epochs * epoch_mb / elapsed
    p.metrics["io.pipeline.consumer_wait_ms_per_batch"] = (
        pipeline.stats.consumer_wait_s / len(pipeline.stats.waits) * 1e3
    )


def probe_cosmo(p: _Prober, seed: int):
    """Simulation cost per universe at the grids the workloads' set-ups use;
    returns a small tiny_16-sized dataset for the thread probe."""
    from repro.core.parameters import ParameterSpace
    from repro.core.trainer import InMemoryData
    from repro.cosmo import SimulationConfig, build_arrays, simulate_density

    theta = ParameterSpace().sample(1, rng=np.random.default_rng(seed))[0]
    for tag, grid, calls in (("g64", 64, 3), ("g96", 96, 1)):
        sim = SimulationConfig(particle_grid=grid, histogram_grid=64)
        p.metrics[f"cosmo.sim_ms_per_universe.{tag}"] = 1e3 * p.seconds_per_call(
            lambda: simulate_density(theta, sim, seed=seed), calls, warmup=0
        )
    built = []
    seconds = p.seconds_per_call(lambda: built.append(build_arrays(2, seed=seed)), 3, warmup=0)
    x, y, _ = built[0]
    p.metrics["cosmo.build_volumes_per_s"] = len(x) / seconds
    return InMemoryData(x, y)


def probe_serve(p: _Prober, seed: int) -> None:
    """The simulation-only serve loop (what ``repro serve`` runs): 2000
    requests at 300 qps over 64 distinct volumes, twice with one seed."""
    from repro.core.model import CosmoFlowModel
    from repro.core.topology import scaled_32
    from repro.serve import InferenceServer, ServeConfig, WorkloadSpec, build_requests

    model = CosmoFlowModel(scaled_32(), seed=seed)
    spec = WorkloadSpec(n_requests=2000, rate_qps=300.0, n_unique=64)
    runs = []

    def serve_once():
        server = InferenceServer(model, ServeConfig(run_inference=False), seed=seed)
        runs.append((server.run(build_requests(spec, seed=seed)), server.events))

    seconds = p.seconds_per_call(serve_once, 2, warmup=0)
    (report, events), (_, events_again) = runs[:2]
    p.check(events == events_again, "two same-seed serve runs gave different event logs")
    p.metrics["serve.sim_us_per_request"] = seconds / spec.n_requests * 1e6
    p.metrics["serve.sim_events_per_request"] = len(events) / spec.n_requests
    p.metrics["serve.virt_latency_ms_p50"] = report.latency_p50_s * 1e3
    p.metrics["serve.virt_latency_ms_p99"] = report.latency_p99_s * 1e3
    p.metrics["serve.virt_shed_ratio"] = report.shed / report.n_requests


def probe_obs(p: _Prober) -> None:
    """Per-event cost of the tracer, the null tracer and a counter."""
    from repro.obs import NULL_TRACER, MetricsRegistry, Tracer

    events = 20_000

    def spans(tracer):
        for _ in range(events):
            with tracer.span("probe"):
                pass

    counter = MetricsRegistry().counter("probe")

    def adds():
        for _ in range(events):
            counter.add(1)

    p.metrics["obs.tracer.span_us"] = 1e6 * p.seconds_per_call(lambda: spans(Tracer()), 3) / events
    p.metrics["obs.null_tracer.span_ns"] = 1e9 * p.seconds_per_call(lambda: spans(NULL_TRACER), 3) / events
    p.metrics["obs.metrics.counter_add_ns"] = 1e9 * p.seconds_per_call(adds, 3) / events


def run_all(seed: int, workdir: Path) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    p = _Prober()
    probe_primitives(p, seed)
    probe_model(p, seed, workdir)
    small_data = probe_cosmo(p, seed)
    probe_comm(p, seed, small_data)
    probe_io(p, seed, workdir)
    probe_serve(p, seed)
    probe_obs(p)
    return {"metrics": p.metrics, "attempted": p.attempted, "failed": p.failed, "notes": p.notes}
