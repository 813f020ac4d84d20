"""Command-line interface: ``python -m repro <command>``.

The workflows a downstream user runs most — generate a dataset, train,
predict, inspect the network, reproduce the scaling study — without
writing a script.

Commands
--------
``simulate``   run the simulation pipeline into a dataset directory
``train``      train a preset network on a dataset directory
``predict``    run a trained checkpoint on a dataset's test split
``topology``   print a preset's architecture and cost audit
``scaling``    print the Figure-4 scaling table for a machine model
``faultsim``   run elastic SSGD under an injected fault plan
``stage``      stage a dataset through the burst-buffer tier and verify
``serve``      run the inference serving tier under load (and faults)
``trace``      summarize an exported trace file (Figure-3-style table)
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys

import numpy as np

__all__ = ["main", "build_parser", "CliInterrupted", "interruptible"]


class CliInterrupted(Exception):
    """A long-running command was stopped by SIGINT or SIGTERM.

    Commands catch this, flush whatever artifacts they were asked to
    produce (trace, metrics, report) so a killed run still leaves
    evidence behind, and exit with the conventional ``128 + signum``
    code (130 for SIGINT, 143 for SIGTERM) so wrappers can tell an
    interrupted run from a failed one.
    """

    def __init__(self, signum: int):
        self.signum = signum
        self.signal_name = signal.Signals(signum).name
        self.exit_code = 128 + signum
        super().__init__(f"interrupted by {self.signal_name}")


@contextlib.contextmanager
def interruptible():
    """Convert SIGINT/SIGTERM into :class:`CliInterrupted` for the body.

    Previous handlers are restored on exit, so only the command's
    long-running section gets the flush-and-exit treatment; a second
    signal during the flush itself kills the process normally.
    """

    def _raise(signum, frame):
        raise CliInterrupted(signum)

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, _raise)
        except ValueError:  # pragma: no cover - non-main thread
            pass
    try:
        yield
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


#: ``train --mode`` → (module, execution-backend class).  The one place a
#: mode is a string: below this table a run is ``TrainingEngine(backend)``.
_BACKENDS = {
    "local": ("repro.core.engine", "LocalBackend"),
    "stepped": ("repro.core.engine", "SteppedBackend"),
    "threaded": ("repro.core.engine", "ThreadedBackend"),
    "process": ("repro.core.process_backend", "ProcessBackend"),
    "elastic": ("repro.core.engine", "ThreadedBackend"),
    "ssgd": ("repro.core.stale_backend", "StaleBackend"),
    "sagn": ("repro.core.stale_backend", "StaleBackend"),
}
#: ``faultsim --backend`` → the ``--mode`` whose backend runs the elastic
#: protocol over that failure domain (threads, or real OS processes).
_FAULTSIM_MODES = {"threaded": "elastic", "process": "process"}


def _backend_class(mode: str):
    # Imported on demand: the process backend pulls in multiprocessing
    # machinery most runs never need.
    import importlib

    module, name = _BACKENDS[mode]
    return getattr(importlib.import_module(module), name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CosmoFlow (SC18) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a simulation dataset directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--sims", type=int, default=60, help="number of universes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--particle-grid", type=int, default=64)
    p.add_argument("--histogram-grid", type=int, default=32)
    p.add_argument("--box-size", type=float, default=128.0)
    p.add_argument("--cola-steps", type=int, default=0)

    p = sub.add_parser("train", help="train a preset network on a dataset directory")
    p.add_argument("--data", required=True, help="dataset directory (from `simulate`)")
    p.add_argument("--preset", default="tiny_16", help="topology preset name")
    p.add_argument("--epochs", type=int, default=8)
    p.add_argument("--eta0", type=float, default=2e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-augment", action="store_true")
    p.add_argument("--checkpoint", default=None, help="write model checkpoint here")
    p.add_argument(
        "--mode",
        choices=tuple(_BACKENDS),
        default="local",
        help="training-engine execution backend (`process` runs each "
        "rank as a real OS process under supervision; `ssgd`/`sagn` "
        "aggregate with bounded staleness on virtual time)",
    )
    p.add_argument("--ranks", type=int, default=2,
                   help="data-parallel ranks for non-local modes")
    p.add_argument("--trace", default=None, metavar="OUT.json",
                   help="record a Chrome trace (open in chrome://tracing "
                        "or Perfetto) and print the metrics registry")
    p.add_argument(
        "--precision",
        choices=("fp32", "fp16"),
        default="fp32",
        help="training numerics: fp16 enables mixed precision (fp32 "
             "master weights, fp16 compute, dynamic loss scaling)",
    )
    p.add_argument(
        "--compress",
        choices=("none", "fp16", "topk"),
        default="none",
        help="allreduce gradient compression (non-local modes): fp16 "
             "cast or top-k sparsification with error feedback",
    )
    p.add_argument(
        "--topk-fraction",
        type=float,
        default=0.1,
        help="kept fraction for --compress topk (default 0.1 = 5x fewer "
             "wire bytes)",
    )
    p.add_argument("--staleness-bound", type=int, default=4,
                   help="ssgd/sagn: hard staleness bound s (0 = fully "
                        "synchronous, bitwise equal to threaded)")
    p.add_argument("--quorum-fraction", type=float, default=0.5,
                   help="ssgd/sagn: fraction of sync ranks a step waits for")
    p.add_argument("--window", type=int, default=1,
                   help="sagn: late-gradient accumulation window in steps")
    p.add_argument("--slow-rank", type=int, action="append", default=[],
                   metavar="RANK",
                   help="inject a straggler: stall this rank every step "
                        "(repeatable; needs --mode ssgd/sagn/elastic)")
    p.add_argument("--slow-ms", type=float, default=100.0,
                   help="how long each --slow-rank stall lasts (virtual "
                        "time for ssgd/sagn, a real sleep for elastic)")
    p.add_argument("--slow-rate", type=float, default=1.0,
                   help="per-step probability a --slow-rank stall fires")
    p.add_argument("--slow-steps", type=int, default=None, metavar="STEPS",
                   help="only stall the first STEPS global steps (the "
                        "recovery schedule the rehabilitation path needs); "
                        "default: the whole run")

    p = sub.add_parser("predict", help="evaluate a checkpoint on a dataset's test split")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--preset", default="tiny_16")

    p = sub.add_parser("topology", help="print a preset's architecture and costs")
    p.add_argument("preset", nargs="?", default="paper_128")

    p = sub.add_parser("scaling", help="print the Figure-4 scaling table")
    p.add_argument(
        "--machine",
        choices=("cori_bb", "cori_lustre", "pizdaint"),
        default="cori_bb",
    )
    p.add_argument("--max-nodes", type=int, default=8192)

    p = sub.add_parser(
        "faultsim",
        help="train elastically on synthetic data under an injected fault plan",
    )
    p.add_argument("--ranks", type=int, default=4)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--samples", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--crash-rate", type=float, default=0.01,
                   help="per-rank per-step crash probability")
    p.add_argument("--hang-rate", type=float, default=0.0)
    p.add_argument("--hang-delay", type=float, default=0.05, metavar="SECONDS",
                   help="how long each injected hang stalls its rank; above "
                   "--timeout the rank is evicted (and a spare, if any, "
                   "replaces it)")
    p.add_argument("--corrupt-rate", type=float, default=0.0,
                   help="per-rank per-collective message corruption probability")
    p.add_argument("--slow-rank", type=int, action="append", default=[],
                   metavar="RANK",
                   help="pin a persistent straggler: RANK_HANG events "
                        "stalling this rank every step (repeatable)")
    p.add_argument("--slow-ms", type=float, default=50.0,
                   help="stall duration for each --slow-rank event")
    p.add_argument("--slow-rate", type=float, default=1.0,
                   help="per-step probability a --slow-rank stall fires")
    p.add_argument("--timeout", type=float, default=10.0)
    p.add_argument("--quorum-fraction", type=float, default=0.5)
    p.add_argument("--checkpoint-dir", default=None,
                   help="enables checkpoint/restart on quorum loss")
    p.add_argument("--recover-after", type=int, default=None, metavar="STEPS",
                   help="schedule every crashed rank to rejoin (grow back) "
                   "this many steps after its crash")
    p.add_argument("--spares", type=int, default=0,
                   help="warm-spare pool size: evicted ranks are auto-"
                   "replaced at the next step boundary while spares last")
    p.add_argument("--backend", choices=tuple(_FAULTSIM_MODES),
                   default="threaded",
                   help="run ranks as threads (simulated faults) or real "
                   "supervised OS processes (real SIGKILLs)")
    p.add_argument("--plan-file", default=None, metavar="PLAN.json",
                   help="replay a saved fault plan instead of sampling "
                   "one (see --save-plan)")
    p.add_argument("--save-plan", default=None, metavar="OUT.json",
                   help="write the fault plan (sampled or loaded) as "
                   "JSON before running, for later --plan-file replay")

    p = sub.add_parser(
        "stage",
        help="stage a dataset into a burst-buffer tier under injected "
        "storage faults, then verify every record is served or counted",
    )
    p.add_argument("--data", required=True,
                   help="dataset directory (manifest or loose .rec files)")
    p.add_argument("--split", default="train",
                   help="which split to stage when --data has a manifest")
    p.add_argument("--bb-dir", required=True, help="burst-buffer directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--capacity-mb", type=float, default=None,
                   help="burst-buffer capacity (LRU eviction beyond it)")
    p.add_argument("--hedge-budget-ms", type=float, default=None,
                   help="hedge hot-tier reads slower than this budget")
    p.add_argument("--n-targets", type=int, default=4,
                   help="burst-buffer server nodes (breaker granularity)")
    p.add_argument("--breaker-threshold", type=int, default=3)
    p.add_argument("--breaker-reset-s", type=float, default=1.0)
    p.add_argument("--stage-fail-rate", type=float, default=0.0,
                   help="per-stage-in failure probability")
    p.add_argument("--target-slow-rate", type=float, default=0.0,
                   help="per-read slow-target probability")
    p.add_argument("--target-slow-ms", type=float, default=50.0)
    p.add_argument("--bb-evict-rate", type=float, default=0.0,
                   help="per-read burst-buffer eviction probability")
    p.add_argument("--strict", action="store_true",
                   help="fail on corrupt records instead of skip-and-count")

    p = sub.add_parser(
        "serve",
        help="serve inference requests through the replica pool under "
        "a synthetic load (and optional injected replica faults)",
    )
    p.add_argument("--preset", default="tiny_16", help="topology preset name")
    p.add_argument("--replicas", type=int, default=3)
    p.add_argument("--spares", type=int, default=1,
                   help="warm spares promoted as replicas crash")
    p.add_argument("--requests", type=int, default=200)
    p.add_argument("--rate", type=float, default=300.0, metavar="QPS",
                   help="offered load (Poisson arrivals)")
    p.add_argument("--deadline-ms", type=float, default=250.0,
                   help="per-request deadline slack")
    p.add_argument("--unique", type=int, default=64,
                   help="distinct input volumes (cache-hit potential)")
    p.add_argument("--max-batch", type=int, default=4)
    p.add_argument("--max-wait-ms", type=float, default=5.0,
                   help="micro-batching window")
    p.add_argument("--max-queue", type=int, default=64)
    p.add_argument("--cache-size", type=int, default=256,
                   help="result-cache entries (0 disables)")
    p.add_argument("--hedge-budget-ms", type=float, default=None,
                   help="hedge batches in flight past this budget")
    p.add_argument("--sustained-gflops", type=float, default=1.0,
                   help="per-replica sustained compute (sets service time)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--crash-at", type=int, action="append", default=[],
                   metavar="DISPATCH",
                   help="inject a replica crash at this dispatch ordinal "
                   "(repeatable)")
    p.add_argument("--crash-rate", type=float, default=0.0,
                   help="per-dispatch replica-crash probability")
    p.add_argument("--slow-rate", type=float, default=0.0,
                   help="per-dispatch replica-straggle probability")
    p.add_argument("--slow-ms", type=float, default=50.0)
    p.add_argument("--p99-budget-ms", type=float, default=None,
                   help="fail (exit 1) if served p99 exceeds this")
    p.add_argument("--report", default=None, metavar="OUT.json",
                   help="write the latency/decision report as JSON")
    p.add_argument("--trace", default=None, metavar="OUT.json",
                   help="record the serve-track decision trace")

    p = sub.add_parser("trace", help="inspect an exported trace file")
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    ps = trace_sub.add_parser(
        "summarize",
        help="print the Figure-3-style stage breakdown of a trace",
    )
    ps.add_argument("trace_file", help="Chrome trace JSON from `train --trace`")
    ps.add_argument("--no-per-rank", action="store_true",
                    help="omit the per-rank-track breakdown")
    return parser


def _preset(name: str):
    from repro.core.topology import PRESETS

    if name not in PRESETS:
        raise SystemExit(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return PRESETS[name]()


def cmd_simulate(args) -> int:
    from repro.cosmo.dataset_builder import SimulationConfig
    from repro.io.manifest import write_simulation_dataset

    config = SimulationConfig(
        particle_grid=args.particle_grid,
        histogram_grid=args.histogram_grid,
        box_size=args.box_size,
        cola_steps=args.cola_steps,
    )
    path = write_simulation_dataset(args.out, args.sims, config, seed=args.seed)
    print(f"wrote dataset manifest: {path}")
    return 0


def cmd_train(args) -> int:
    from repro.core.checkpoint import save_checkpoint
    from repro.core.engine import EngineConfig, TrainingEngine, steps_per_epoch
    from repro.core.model import CosmoFlowModel
    from repro.core.optimizer import CosmoFlowOptimizer, OptimizerConfig
    from repro.core.trainer import InMemoryData
    from repro.io.manifest import load_simulation_dataset

    manifest, datasets = load_simulation_dataset(args.data)
    preset = _preset(args.preset)
    sub = manifest.get("subvolume_size")
    if sub is not None and sub != preset.input_size:
        raise SystemExit(
            f"dataset sub-volumes are {sub}^3 but preset {args.preset!r} expects "
            f"{preset.input_size}^3 input; regenerate with a matching "
            f"--histogram-grid or pick another preset"
        )
    xtr, ytr = datasets["train"].to_arrays()
    train = InMemoryData(xtr, ytr, augment=not args.no_augment)
    val = None
    if "val" in datasets:
        xv, yv = datasets["val"].to_arrays()
        val = InMemoryData(xv, yv)

    tracer = metrics = None
    if args.trace:
        from repro.obs import MetricsRegistry, Tracer

        tracer = Tracer()
        metrics = MetricsRegistry()

    from repro.primitives import conv3d

    if metrics is not None:
        # Conv kernels count calls/flops/bytes into the same registry
        # the tracer prints.
        conv3d.set_metrics(metrics)

    try:
        local = args.mode == "local"
        if not local and len(train) < args.ranks:
            raise SystemExit(
                f"dataset of {len(train)} samples cannot feed {args.ranks} ranks"
            )
        steps = steps_per_epoch(train, 1 if local else args.ranks, 1)
        opt_config = OptimizerConfig(
            eta0=args.eta0, decay_steps=max(1, args.epochs * steps),
            precision=args.precision,
        )
        backend_cls = _backend_class(args.mode)
        optimizer = None
        if local:
            from repro.utils.rng import new_rng

            model = CosmoFlowModel(preset, seed=args.seed)
            optimizer = CosmoFlowOptimizer(model.parameter_arrays(), opt_config)
            backend = backend_cls(
                model, optimizer, train, val_data=val, rng=new_rng(args.seed + 1)
            )
        else:
            from repro.comm.plugin import PluginConfig

            # What only some group backends take.
            extra = {}
            if args.slow_rank:
                if args.mode not in ("ssgd", "sagn", "elastic"):
                    raise SystemExit(
                        "--slow-rank needs --mode ssgd, sagn, or elastic "
                        "(the synchronous backends have no straggler hook)"
                    )
                from repro.faults import FaultInjector, FaultPlan

                slow_steps = (
                    args.slow_steps
                    if args.slow_steps is not None
                    else max(1, args.epochs * steps)
                )
                plan = FaultPlan(seed=args.seed)
                try:
                    for rank in args.slow_rank:
                        plan = plan.with_slow_rank(
                            rank, args.slow_ms / 1e3, slow_steps, rate=args.slow_rate
                        )
                except ValueError as exc:
                    print(f"infeasible straggler plan: {exc}", file=sys.stderr)
                    return 2
                problems = plan.validate(args.ranks)
                if problems:
                    for problem in problems:
                        print(f"infeasible straggler plan: {problem}", file=sys.stderr)
                    return 2
                extra["injector"] = FaultInjector(plan)
            if args.mode == "elastic":
                from repro.core.elastic import ElasticConfig

                # `threaded` is the same backend under its default
                # policy, where every rank is needed.
                extra["elastic"] = ElasticConfig()
            if args.mode in ("ssgd", "sagn"):
                from repro.comm.stale import StalenessConfig

                extra["stale_mode"] = args.mode
                extra["staleness"] = StalenessConfig(
                    staleness_bound=args.staleness_bound,
                    quorum_fraction=args.quorum_fraction,
                    window=args.window,
                )
            backend = backend_cls(
                preset,
                train,
                val_data=val,
                optimizer_config=opt_config,
                n_ranks=args.ranks,
                plugin_config=PluginConfig(
                    compression=args.compress, topk_fraction=args.topk_fraction
                ),
                **extra,
            )
        engine = TrainingEngine(
            backend,
            EngineConfig(epochs=args.epochs, seed=args.seed + 1),
            tracer=tracer, metrics=metrics,
        )
        try:
            with interruptible():
                history = engine.run()
        except CliInterrupted as exc:
            # A killed training run should still leave its observability
            # artifacts behind: whatever the tracer and registry saw up to
            # the signal is flushed before exiting 128+signum.
            print(f"interrupted by {exc.signal_name}; flushing partial artifacts")
            if tracer is not None:
                out = tracer.export(args.trace)
                print(f"trace: {out} ({len(tracer.ordered())} events, partial)")
                print(metrics.report())
            return exc.exit_code
        for e, (tl, vl) in enumerate(zip(history.train_loss, history.val_loss), 1):
            print(f"epoch {e}: train {tl:.4f}  val {vl:.4f}")
        if local:
            tp = engine.throughput()
            print(f"throughput: {tp['samples_per_sec']:.1f} samples/s "
                  f"({tp['flops_per_sec'] / 1e9:.2f} Gflop/s)")
        else:
            gs = engine.group_stats
            print(f"mode: {args.mode}  ranks: {args.ranks}  "
                  f"reductions: {gs.get('reductions', 0)}")
            if "loss_scale" in gs:
                print(f"loss scale: {gs['loss_scale']:.0f}  "
                      f"skipped steps: {gs['loss_scale_skipped_steps']}")
            if "compression" in gs:
                print(f"compression: {gs['compression']}  wire bytes: "
                      f"{gs['compression_bytes_wire']:,} of {gs['compression_bytes_in']:,} "
                      f"({gs['compression_ratio']:.2f}x dense)")
            if args.mode in ("ssgd", "sagn"):
                bound = gs["staleness_bound"]
                print(f"staleness: max {gs['max_staleness']} (bound {bound})  "
                      f"late folds: {gs['late_folds']}  dropped: {gs['dropped_stale']}  "
                      f"bound waits: {gs['bound_waits']}")
                print(f"virtual time: {gs['virtual_time_s']:.3f}s  "
                      f"contributions: {gs['contributions']}")
                print(f"quarantined: {gs['quarantined_ranks']}  "
                      f"rehabilitated: {gs['rehabilitated_ranks']}")
                if gs["max_staleness"] > bound:
                    # The group raises on a sync violation; this guards the
                    # reported numbers end to end for CI's benefit.
                    print("FAILED: observed staleness exceeded the bound")
                    return 1
        if args.checkpoint:
            path = save_checkpoint(args.checkpoint, engine.final_model, optimizer)
            print(f"checkpoint: {path}")
        if tracer is not None:
            out = tracer.export(args.trace)
            print(f"trace: {out} ({len(tracer.ordered())} events; "
                  f"`repro trace summarize {args.trace}` for the stage table)")
            print(metrics.report())
        return 0
    finally:
        if metrics is not None:
            conv3d.set_metrics(None)


def cmd_trace(args) -> int:
    from repro.obs import format_summary, load_trace, summarize_trace

    events = load_trace(args.trace_file)
    summary = summarize_trace(events)
    try:
        print(format_summary(summary, per_rank=not args.no_per_rank))
    except BrokenPipeError:
        # Summaries get piped into head/less; a closed pipe is not an
        # error worth a traceback.
        import os
        import sys

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def cmd_predict(args) -> int:
    from repro.core.checkpoint import load_checkpoint
    from repro.core.metrics import relative_errors
    from repro.core.model import CosmoFlowModel
    from repro.io.manifest import load_simulation_dataset

    _, datasets = load_simulation_dataset(args.data)
    split = datasets.get("test") or datasets["train"]
    x, y = split.to_arrays()
    model = CosmoFlowModel(_preset(args.preset), seed=0)
    load_checkpoint(args.checkpoint, model)
    pred = model.predict(x)
    truth = model.space.denormalize(y)
    print(relative_errors(pred, truth, names=model.space.names))
    return 0


def cmd_topology(args) -> int:
    from repro.core.flops import report

    print(report(_preset(args.preset)))
    return 0


def cmd_scaling(args) -> int:
    from repro.perfmodel import (
        cori_datawarp_machine,
        cori_lustre_machine,
        pizdaint_lustre_machine,
    )

    machine = {
        "cori_bb": cori_datawarp_machine,
        "cori_lustre": cori_lustre_machine,
        "pizdaint": pizdaint_lustre_machine,
    }[args.machine]()
    counts = [n for n in (1, 64, 128, 256, 512, 1024, 2048, 4096, 8192) if n <= args.max_nodes]
    print(f"{'nodes':>6}{'step ms':>10}{'speedup':>10}{'efficiency':>12}{'Pflop/s':>10}")
    for point in machine.sweep(counts):
        print(
            f"{point.n_nodes:>6}{point.step_time_s * 1e3:>10.1f}"
            f"{point.speedup:>9.0f}x{point.efficiency * 100:>11.0f}%"
            f"{point.sustained_flops / 1e15:>10.3f}"
        )
    return 0


def cmd_faultsim(args) -> int:
    from repro.comm.errors import QuorumLostError
    from repro.core.elastic import ElasticConfig
    from repro.core.engine import EngineConfig, TrainingEngine, steps_per_epoch
    from repro.core.optimizer import OptimizerConfig
    from repro.core.topology import tiny_16
    from repro.core.trainer import InMemoryData
    from repro.faults import FaultInjector, FaultPlan

    if args.samples < args.ranks:
        raise SystemExit("--samples must be >= --ranks")
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal((args.samples, 1, 16, 16, 16)).astype(np.float32)
    y = rng.uniform(0.2, 0.8, size=(args.samples, 3)).astype(np.float32)
    data = InMemoryData(x, y)
    steps = steps_per_epoch(data, args.ranks, 1) * args.epochs
    if args.plan_file:
        try:
            plan = FaultPlan.load(args.plan_file)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot load fault plan {args.plan_file}: {exc}")
    else:
        plan = FaultPlan.sample(
            args.seed,
            args.ranks,
            steps,
            crash_rate=args.crash_rate,
            hang_rate=args.hang_rate,
            hang_delay_s=args.hang_delay,
            corrupt_rate=args.corrupt_rate,
        )
    if args.spares < 0:
        raise SystemExit("--spares must be >= 0")
    try:
        for rank in args.slow_rank:
            plan = plan.with_slow_rank(
                rank, args.slow_ms / 1e3, steps, rate=args.slow_rate
            )
    except ValueError as exc:
        print(f"infeasible fault plan: {exc}", file=sys.stderr)
        return 2
    if args.recover_after is not None:
        plan = plan.with_recovery(args.recover_after)
    if args.save_plan:
        print(f"fault plan: {plan.save(args.save_plan)}")
    # The run's rank space includes warm spares (they join with ids
    # past the primaries); a plan referencing anything else, or a
    # rejoin scheduled after the last step, cannot do what was asked.
    problems = plan.validate(args.ranks + args.spares, n_steps=steps)
    if problems:
        for problem in problems:
            print(f"infeasible fault plan: {problem}", file=sys.stderr)
        return 2
    print(plan.describe())
    # The process backend ships the plan to its workers, each of which
    # builds its own injector; rank threads share one.
    faults = {"plan": plan} if args.backend == "process" else {"injector": FaultInjector(plan)}
    backend = _backend_class(_FAULTSIM_MODES[args.backend])(
        tiny_16(),
        data,
        optimizer_config=OptimizerConfig(eta0=5e-3, decay_steps=max(1, steps)),
        n_ranks=args.ranks,
        elastic=ElasticConfig(
            timeout_s=args.timeout,
            quorum_fraction=args.quorum_fraction,
            checkpoint_dir=args.checkpoint_dir,
            spares=args.spares,
        ),
        **faults,
    )
    engine = TrainingEngine(backend, EngineConfig(epochs=args.epochs, validate=False))
    try:
        hist = engine.run()
    except QuorumLostError as exc:
        # Unrecovered quorum loss is the one outcome CI must be able to
        # assert on: always a nonzero exit, never a traceback.
        hint = (
            "restart budget exhausted"
            if args.checkpoint_dir
            else "pass --checkpoint-dir to enable restart"
        )
        print(f"FAILED: unrecovered quorum loss with survivors "
              f"{list(exc.survivors)} ({hint})")
        return 1
    stats = engine.group_stats
    for e, tl in enumerate(hist.train_loss, 1):
        print(f"epoch {e}: train {tl:.4f}")
    print(f"survivors: {stats['survivors']}  failed: {stats['failed_ranks']}  "
          f"evicted: {stats['evicted_ranks']}")
    print(f"restarts: {stats['restarts']}  retransmits: {stats['retransmits']}  "
          f"faults fired: {stats['faults_injected'] or 'none'}")
    print(f"rejoins: {stats['rejoins'] or 'none'}  resyncs: {stats['resyncs']} "
          f"({stats['resync_bytes']} bytes)  spares used: {stats['spares_used']}")
    return 0


def cmd_stage(args) -> int:
    from pathlib import Path

    from repro.io.dataset import RecordDataset
    from repro.io.manifest import MANIFEST_NAME, load_simulation_dataset
    from repro.io.records import RecordCorruptionError
    from repro.io.staging import StagingConfig, StagingManager
    from repro.faults import FaultInjector, FaultPlan

    data = Path(args.data)
    if (data / MANIFEST_NAME).exists():
        _, datasets = load_simulation_dataset(data)
        if args.split not in datasets:
            raise SystemExit(
                f"split {args.split!r} not in dataset; have {sorted(datasets)}"
            )
        paths = datasets[args.split].paths
    else:
        paths = sorted(data.glob("**/*.rec"))
    if not paths:
        raise SystemExit(f"no record files under {data}")

    # Generous event domains: every file staged (with headroom for
    # re-stages) and two verification passes' worth of reads.
    plan = FaultPlan.sample(
        args.seed,
        1,
        0,
        stage_fail_rate=args.stage_fail_rate,
        n_stage_ops=4 * len(paths),
        target_slow_rate=args.target_slow_rate,
        target_slow_s=args.target_slow_ms / 1e3,
        bb_evict_rate=args.bb_evict_rate,
        n_staged_reads=4 * len(paths),
    )
    print(plan.describe())
    injector = FaultInjector(plan)
    manager = StagingManager(
        args.bb_dir,
        config=StagingConfig(
            capacity_bytes=(
                int(args.capacity_mb * 1e6) if args.capacity_mb is not None else None
            ),
            hedge_budget_s=(
                args.hedge_budget_ms / 1e3 if args.hedge_budget_ms is not None else None
            ),
            n_targets=args.n_targets,
            breaker_threshold=args.breaker_threshold,
            breaker_reset_s=args.breaker_reset_s,
        ),
        seed=args.seed,
        injector=injector,
    )
    try:
        with interruptible():
            staged = manager.stage_all(paths)
            print(f"staged {staged}/{len(paths)} shards "
                  f"({manager.staged_bytes / 1e6:.1f} MB in burst buffer)")
            dataset = RecordDataset(paths, strict=args.strict, staging=manager)
            delivered = sum(
                len(x)
                for x, _ in dataset.batches(1, rng=np.random.default_rng(args.seed))
            )
    except CliInterrupted as exc:
        # Flush the staging ledger before dying: a half-staged burst
        # buffer with no record of what landed is the worst outcome.
        print(manager.stats.describe())
        print(f"faults fired: {injector.summary() or 'none'}")
        print(f"interrupted by {exc.signal_name}; staging stats flushed")
        return exc.exit_code
    except (RecordCorruptionError, OSError) as exc:
        print(manager.stats.describe())
        print(f"FAILED: verification read pass died: {exc}")
        return 1
    skipped = dataset.records_skipped
    print(f"verification pass: {delivered} records delivered, {skipped} skipped")
    print(manager.stats.describe())
    print(f"breakers: {manager.breaker_states()}")
    print(f"faults fired: {injector.summary() or 'none'}")
    if delivered == 0:
        print("FAILED: no records survived the staging tier")
        return 1
    return 0


def cmd_serve(args) -> int:
    import json

    from repro.core.model import CosmoFlowModel
    from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
    from repro.perfmodel.node import NodeSpec
    from repro.serve import InferenceServer, ServeConfig, WorkloadSpec, build_requests

    if args.sustained_gflops <= 0:
        raise SystemExit("--sustained-gflops must be > 0")
    model = CosmoFlowModel(_preset(args.preset), seed=args.seed)
    node = NodeSpec(
        name="serve-node",
        sustained_flops=args.sustained_gflops * 1e9,
        peak_flops=args.sustained_gflops * 1e10,
    )
    plan = FaultPlan.sample(
        args.seed,
        1,
        0,
        replica_crash_rate=args.crash_rate,
        replica_slow_rate=args.slow_rate,
        replica_slow_s=args.slow_ms / 1e3,
        n_dispatches=2 * args.requests,
    )
    pinned = tuple(
        FaultEvent(FaultKind.REPLICA_CRASH, step=d) for d in sorted(args.crash_at)
    )
    plan = FaultPlan(seed=plan.seed, events=tuple(plan.events) + pinned)
    if not plan.empty:
        print(plan.describe())
    config = ServeConfig(
        n_replicas=args.replicas,
        n_spares=args.spares,
        max_batch=args.max_batch,
        max_wait_s=args.max_wait_ms / 1e3,
        max_queue=args.max_queue,
        cache_capacity=args.cache_size,
        hedge_budget_s=(
            args.hedge_budget_ms / 1e3 if args.hedge_budget_ms is not None else None
        ),
    )
    tracer = None
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer()
    injector = FaultInjector(plan) if not plan.empty else None
    server = InferenceServer(
        model, config, node=node, seed=args.seed, injector=injector, tracer=tracer
    )
    spec = WorkloadSpec(
        n_requests=args.requests,
        rate_qps=args.rate,
        deadline_slack_s=args.deadline_ms / 1e3,
        n_unique=args.unique,
    )
    try:
        with interruptible():
            report = server.run(build_requests(spec, seed=args.seed))
    except CliInterrupted as exc:
        print(f"interrupted by {exc.signal_name}; flushing partial artifacts")
        if args.report:
            doc = {
                "interrupted": exc.signal_name,
                "latency_histogram": server.metrics.histogram(
                    "serve.latency_s"
                ).summary(),
            }
            with open(args.report, "w") as fh:
                json.dump(doc, fh, indent=2)
            print(f"report: {args.report} (partial)")
        if tracer is not None:
            out = tracer.export(args.trace)
            print(f"trace: {out} ({len(tracer.ordered())} events, partial)")
        return exc.exit_code
    print(report.describe())
    if injector is not None:
        print(f"faults fired: {injector.summary() or 'none'}")
    if args.report:
        doc = {
            "config": {
                "replicas": args.replicas, "spares": args.spares,
                "rate_qps": args.rate, "requests": args.requests,
                "deadline_ms": args.deadline_ms, "seed": args.seed,
            },
            "report": report.as_dict(),
            "latency_histogram": server.metrics.histogram("serve.latency_s").summary(),
        }
        with open(args.report, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"report: {args.report}")
    if tracer is not None:
        out = tracer.export(args.trace)
        print(f"trace: {out} ({len(tracer.ordered())} events; "
              f"`repro trace summarize {args.trace}` for the breakdown)")
    failed = False
    if report.dropped > 0:
        print(f"FAILED: {report.dropped} admitted requests dropped")
        failed = True
    if (
        args.p99_budget_ms is not None
        and report.latency_p99_s * 1e3 > args.p99_budget_ms
    ):
        print(f"FAILED: served p99 {report.latency_p99_s * 1e3:.2f}ms exceeds "
              f"budget {args.p99_budget_ms:.2f}ms")
        failed = True
    return 1 if failed else 0


def main(argv=None) -> int:
    from repro.utils.procs import raise_malloc_thresholds

    raise_malloc_thresholds()
    args = build_parser().parse_args(argv)
    np.set_printoptions(suppress=True)
    return {
        "simulate": cmd_simulate,
        "train": cmd_train,
        "predict": cmd_predict,
        "topology": cmd_topology,
        "scaling": cmd_scaling,
        "faultsim": cmd_faultsim,
        "stage": cmd_stage,
        "serve": cmd_serve,
        "trace": cmd_trace,
    }[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
