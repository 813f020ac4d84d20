"""Subprocess entry: one workload (or the probes) in a fresh interpreter.

``python -m bench`` starts this module once per measurement so that every
number comes from a process that imported, allocated and warmed up from
nothing.  The last line of standard output is one JSON document.

Modes:

``setup``   set-up phases and warm-up only; reports ``setup_s``.
``run``     the untraced run behind the end-to-end metrics.
``trace``   the traced run: the same operations through the public entry
            point, then hand-driven with spans off, then with spans on.
``probes``  kernel and layer probes (see :mod:`bench.probes`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from bench.frozen import TICK_REF_MS

SINGLE_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Ticks after each set-up phase (imports, data, program): 21 >= 20 in all.
SETUP_BURST = 7

_TAGS = {"train_scaled32_local": "s32", "train_tiny16_stepped4": "t16"}


def setup_seconds(t0: float, window_open: float, setup_ticks_s) -> float:
    """Speed-corrected time from process start to the first timed operation,
    not counting the ticks themselves."""
    from bench.measure import slowdown

    return (window_open - t0 - sum(setup_ticks_s)) / slowdown(setup_ticks_s)


def _set_up(args):
    """Imports are done; run the data and program phases with their ticks."""
    from bench.measure import OpClock
    from bench.tick import Ticker
    from bench.workloads import make_workload

    ticker = Ticker()
    ticker.burst(SETUP_BURST)
    workload = make_workload(args.workload, args.seed, Path(args.workdir))
    workload.build_data()
    ticker.burst(SETUP_BURST)
    workload.build_program()
    ticker.burst(SETUP_BURST)
    return workload, ticker, OpClock(ticker)


def _outcome_doc(*outcomes) -> dict:
    return {
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "notes": [n for o in outcomes for n in o.notes],
    }


def mode_run(args) -> dict:
    from bench.measure import peak_rss_mb

    workload, ticker, clock = _set_up(args)
    outcome = workload.run(clock, 0 if args.mode == "setup" else args.ops)
    doc = _outcome_doc(outcome)
    doc["setup_s"] = setup_seconds(args.t0, clock.window_open_monotonic, clock.setup_ticks_s)
    if args.mode == "run":
        doc["stats"] = clock.stats()
        doc["stats"]["peak_rss_mb"] = peak_rss_mb()
        doc["counts"] = outcome.counts
    return doc


def mode_trace(args) -> dict:
    from bench.measure import OpClock, slowdown
    from bench.spans import NullRecorder, SpanRecorder, inclusive_times, uncovered_share

    workload, ticker, public_clock = _set_up(args)
    n_ops = workload.ops_for(args.ops)
    public = workload.run(public_clock, n_ops)
    outcomes = [public]
    by_hand_stats = None
    if args.workload in _TAGS:
        # Spans off: what the engine loop adds over the bare calls.
        by_hand_clock = OpClock(ticker)
        outcomes.append(workload.run_by_hand(by_hand_clock, n_ops, NullRecorder()))
        by_hand_stats = by_hand_clock.stats()
    recorder = SpanRecorder()
    traced_clock = OpClock(ticker)
    traced = workload.run_by_hand(traced_clock, n_ops, recorder)
    outcomes.append(traced)

    public_stats = public_clock.stats()
    traced_stats = traced_clock.stats()
    slow = slowdown(traced_clock.window_ticks_s)
    # Speed-corrected mean milliseconds per operation, children included.
    span_ms = {
        name: total / n_ops * 1e3 / slow
        for name, total in inclusive_times(recorder.spans).items()
    }
    metrics = _layer_metrics(
        workload, span_ms, public_stats, by_hand_stats, public.counts, traced.counts
    )
    own = {
        key: public_stats[key]
        for key in ("host.speed_factor", "host.tick_ms_mean", "raw.ops_per_s",
                    "raw.op_ms_p50", "raw.op_ms_p95")
    }
    own["trace.overhead_ratio"] = traced_stats["op_ms_mean"] / public_stats["op_ms_mean"]
    trace_path = recorder.write(
        Path(args.out) / f"trace_{args.workload}.json",
        workload=args.workload,
        seed=args.seed,
        operations=n_ops,
        clock="time.perf_counter seconds; operations below 0 are warm-up",
        tick_ms_mean=traced_stats["host.tick_ms_mean"],
        tick_ref_ms=TICK_REF_MS,
    )
    doc = _outcome_doc(*outcomes)
    doc.update(
        metrics=metrics,
        own=own,
        uncovered_share=uncovered_share(recorder.spans),
        trace_file=str(trace_path),
    )
    return doc


def _layer_metrics(workload, span_ms, public_stats, by_hand_stats, counts, traced_counts) -> dict:
    """Per-layer metrics this workload's span tree and counts give."""
    from repro.core import flops

    name = workload.name
    out = {}
    convs = sorted(k for k in span_ms if k.startswith("tensor.layer.conv"))
    if name in _TAGS:
        tag = _TAGS[name]
        forward = span_ms["tensor.forward"]
        out[f"tensor.{tag}.forward_ms"] = forward
        out[f"tensor.{tag}.backward_ms"] = span_ms["tensor.backward"]
        out[f"tensor.{tag}.loss_ms"] = span_ms["tensor.loss"]
        out[f"tensor.{tag}.nonconv_fwd_ms"] = forward - sum(span_ms[k] for k in convs)
        out[f"core.optimizer.step_ms.{tag}"] = span_ms["core.optimizer.step"]
        out[f"core.engine.overhead_ms_per_step.{tag}"] = (
            public_stats["op_ms_mean"] - by_hand_stats["op_ms_mean"]
        )
        out[f"core.train.loss_first_decile.{tag}"] = counts["loss_first_decile"]
        out[f"core.train.loss_last_decile.{tag}"] = counts["loss_last_decile"]
    if name == "train_scaled32_local":
        total = flops.total_flops(workload.preset())["total"]
        out["core.flops.train_gflops_s32"] = total / public_stats["op_ms_mean"] / 1e6
    elif name == "train_tiny16_stepped4":
        out["comm.stepped4.reduce_ms_per_step"] = span_ms["comm.reduce"]
        out["comm.stepped4.bytes_per_step"] = counts["bytes_per_step"]
        out["comm.stepped4.reductions_per_step"] = counts["reductions_per_step"]
    elif name == "infer_scaled32_batch8":
        for key in convs:
            out[f"tensor.s32.infer_layer_ms.{key.rsplit('.', 1)[1]}"] = span_ms[key]
        fwd = flops.total_flops(workload.model.config)["fwd"] * workload.BATCH
        out["core.flops.infer_gflops_s32"] = fwd / public_stats["op_ms_mean"] / 1e6
    elif name == "data_records32_staged":
        staged_mb = traced_counts["bytes_staged_per_epoch"] / 1e6
        out["io.staging.stage_in_mb_s"] = staged_mb / (span_ms["io.staging.read"] / 1e3)
        out["io.dataset.index_ms"] = span_ms["io.dataset.index"]
        out["io.staging.evictions_per_epoch"] = traced_counts["evictions_per_epoch"]
        out["io.staging.bytes_staged_per_epoch"] = traced_counts["bytes_staged_per_epoch"]
    return out


def mode_probes(args) -> dict:
    from bench import probes

    return probes.run_all(args.seed, Path(args.workdir))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.worker", description=__doc__.split("\n")[0])
    parser.add_argument("--mode", choices=("setup", "run", "trace", "probes"), required=True)
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ops", type=int, default=0)
    parser.add_argument("--t0", type=float, default=None, help="parent's time.monotonic() at spawn")
    parser.add_argument("--workdir", required=True, help="scratch directory inside the checkout")
    parser.add_argument("--out", default="bench/out")
    args = parser.parse_args(argv)
    if args.t0 is None:
        args.t0 = time.monotonic()
    # Multi-threaded BLAS measured 2x the CPU for no speed-up on the 2-vCPU
    # host and makes ticks and operations compete; must precede the NumPy import.
    if "numpy" in sys.modules:
        raise RuntimeError("NumPy was imported before the BLAS thread count was pinned")
    for var in SINGLE_THREAD_ENV:
        os.environ[var] = "1"
    mode = {"setup": mode_run, "run": mode_run, "trace": mode_trace, "probes": mode_probes}[args.mode]
    doc = mode(args)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
