"""``python -m bench``: the repo's benchmark, one command.

Without ``--workload`` it runs the whole suite: the four workloads untraced
(end-to-end metrics), then the traced run and the probes (per-layer metrics),
prints every metric by name with its unit and exits non-zero if any check
failed.  ``--repeat K`` is the self-check of run-to-run spread.

With ``--workload NAME --seed N --seconds S --trace 0|1`` it runs one
measurement the way ``BENCHMARK.json`` describes and prints the result as one
JSON object on the last line of standard output.

Each measurement runs in a fresh subprocess (:mod:`bench.worker`), one at a
time, single-threaded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from bench.frozen import OPS_AT_REF, SECONDS_REF, TICK_REF_MS, TRACE_FRACTION
from bench.worker import SINGLE_THREAD_ENV

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS_PER_RUN = 3
#: A worker that takes longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_contract() -> dict:
    """``BENCHMARK.json``: the metric names, units and bounds of record."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def ops_for(workload: str, seconds: float, quick: bool) -> int:
    """The fixed operation count of a run: all four scale by one factor."""
    ops = OPS_AT_REF[workload] * seconds / SECONDS_REF
    if quick:
        ops /= 10
    return max(8, round(ops))


def spawn(mode: str, seed: int, workload: str = "", ops: int = 0) -> dict:
    """Run one worker to completion and return the document it printed."""
    workdir = OUT_DIR / "tmp" / f"{os.getpid()}-{mode}-{workload or 'probes'}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    # The worker runs from ROOT, so ``bench`` is importable; the program is not.
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in SINGLE_THREAD_ENV:
        env[var] = "1"
    command = [
        sys.executable, "-m", "bench.worker", "--mode", mode, "--seed", str(seed),
        "--workload", workload, "--ops", str(ops), "--workdir", str(workdir),
        "--out", str(OUT_DIR), "--t0", repr(time.monotonic()),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload or 'probes'} timed out") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        raise BenchError(f"{mode} worker for {workload or 'probes'} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_untraced(workload: str, seed: int, ops: int) -> dict:
    """One untraced run: end-to-end metrics, counts and diagnostics."""
    setups = [spawn("setup", seed, workload)["setup_s"] for _ in range(SETUPS_PER_RUN - 1)]
    doc = spawn("run", seed, workload, ops)
    setups.append(doc["setup_s"])
    stats = doc["stats"]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": stats["ops_per_s"],
        "op_ms_p50": stats["op_ms_p50"],
        "cpu_ms_per_op": stats["cpu_ms_per_op"],
        "peak_rss_mb": stats["peak_rss_mb"],
    }
    return {
        "metrics": metrics,
        "diagnostics": {k: v for k, v in stats.items() if k not in metrics},
        "counts": doc["counts"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "notes": doc["notes"],
    }


def run_traced(seed: int, seconds: float, quick: bool) -> dict:
    """The traced run of all four workloads plus the probes.

    Every per-layer metric comes from one of the five workers; the
    benchmark's own metrics are kept per workload.
    """
    layers: Dict[str, float] = {}
    own: Dict[str, Dict[str, float]] = {}
    attempted = failed = 0
    notes: List[str] = []
    uncovered = {}
    for workload in OPS_AT_REF:
        ops = max(8, round(ops_for(workload, seconds, quick) * TRACE_FRACTION))
        doc = spawn("trace", seed, workload, ops)
        layers.update(doc["metrics"])
        own[workload] = doc["own"]
        uncovered[workload] = doc["uncovered_share"]
        attempted += doc["attempted"]
        failed += doc["failed"]
        notes += doc["notes"]
    doc = spawn("probes", seed)
    layers.update(doc["metrics"])
    attempted += doc["attempted"]
    failed += doc["failed"]
    notes += doc["notes"]
    return {
        "layers": layers, "own": own, "uncovered_share": uncovered,
        "attempted": attempted, "failed": failed, "notes": notes,
    }


# -- reporting -----------------------------------------------------------------


def fingerprint() -> Dict[str, str]:
    """Where the numbers were taken: host, interpreter, BLAS, commit."""
    for var in SINGLE_THREAD_ENV:
        os.environ[var] = "1"
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {
        "nproc": str(os.cpu_count()),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": sha,
        "tick_ref_ms": repr(TICK_REF_MS),
    }


def print_header(seed: int) -> None:
    print(f"# bench  seed={seed}  " + "  ".join(f"{k}={v}" for k, v in fingerprint().items()))


def print_metrics(title: str, values: Dict[str, float], units: Dict[str, str]) -> None:
    print(f"## {title}")
    for name, value in values.items():
        print(f"  {name:<46} {value:>14.6g} {units.get(name, '')}")


def print_notes(notes: List[str]) -> None:
    for note in notes:
        print(f"  FAILED CHECK: {note}")


def units_of(contract: dict) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}


def result_line(metrics: Dict[str, float], units: Dict[str, str], attempted: int, failed: int) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    })


def declared(values: Dict[str, float], declared_metrics: List[dict]) -> Dict[str, float]:
    """``values`` in the contract's order; a missing or extra name is an error."""
    names = [m["name"] for m in declared_metrics]
    missing = [n for n in names if n not in values]
    extra = [n for n in values if n not in names]
    if missing or extra:
        raise BenchError(f"metrics do not match BENCHMARK.json: missing {missing}, undeclared {extra}")
    return {n: values[n] for n in names}


# -- modes ----------------------------------------------------------------------


def run_one(args, contract: dict) -> int:
    """The contract's single measurement: one workload, traced or not."""
    units = units_of(contract)
    print_header(args.seed)
    if args.trace:
        traced = run_traced(args.seed, args.seconds, args.quick)
        values = dict(traced["layers"])
        values.update(traced["own"][args.workload])
        metrics = declared(values, contract["per_layer"])
        attempted, failed, notes = traced["attempted"], traced["failed"], traced["notes"]
        print(f"  host.speed_factor of each traced workload: "
              + ", ".join(f"{w}={o['host.speed_factor']:.3f}" for w, o in traced["own"].items()))
    else:
        ops = ops_for(args.workload, args.seconds, args.quick)
        run = run_untraced(args.workload, args.seed, ops)
        metrics = declared(run["metrics"], contract["end_to_end"])
        attempted, failed, notes = run["attempted"], run["failed"], run["notes"]
        print_metrics(f"{args.workload}: diagnostics", run["diagnostics"], units)
    print_metrics(f"{args.workload}: {'per-layer' if args.trace else 'end-to-end'}", metrics, units)
    print_notes(notes)
    print(result_line(metrics, units, attempted, failed))
    return 0


def run_suite(seed: int, quick: bool, contract: dict, with_trace: bool = True) -> dict:
    """All four workloads untraced, then (optionally) the traced run."""
    units = units_of(contract)
    suite = {"workloads": {}, "failed": 0}
    for workload in OPS_AT_REF:
        run = run_untraced(workload, seed, ops_for(workload, SECONDS_REF, quick))
        declared(run["metrics"], contract["end_to_end"])
        suite["workloads"][workload] = run
        suite["failed"] += run["failed"]
        print_metrics(f"{workload}: end-to-end ({run['attempted']} operations, "
                      f"{run['failed']} failed)", run["metrics"], units)
        print_metrics(f"{workload}: diagnostics and counts",
                      {**run["diagnostics"], **run["counts"]}, units)
        print_notes(run["notes"])
        sys.stdout.flush()
    if with_trace:
        traced = run_traced(seed, SECONDS_REF, quick)
        suite["traced"] = traced
        suite["failed"] += traced["failed"]
        for own in traced["own"].values():
            declared({**traced["layers"], **own}, contract["per_layer"])
        print_metrics("per-layer (traced run and probes)", traced["layers"], units)
        for workload, own in traced["own"].items():
            print_metrics(f"{workload}: traced run", own, units)
            print(f"  {'root span time no child covers':<46} {traced['uncovered_share'][workload]:>14.4f}")
        print_notes(traced["notes"])
        print(f"  trace files: {OUT_DIR}/trace_<workload>.json")
    return suite


def run_repeat(args, contract: dict) -> int:
    """``--repeat K``: the spread of each end-to-end metric over K suites."""
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    series: Dict[str, Dict[str, List[float]]] = {w: {m: [] for m in bounds} for w in OPS_AT_REF}
    failed = 0
    print_header(args.seed)
    for k in range(args.repeat):
        print(f"# repeat {k + 1} of {args.repeat}")
        suite = run_suite(args.seed, args.quick, contract, with_trace=False)
        failed += suite["failed"]
        for workload, run in suite["workloads"].items():
            for name, value in run["metrics"].items():
                series[workload][name].append(value)
    table = []
    print(f"## spread over {args.repeat} runs: (max - min) / median against the bound")
    for workload, metrics in series.items():
        for name, values in metrics.items():
            median = statistics.median(values)
            spread = (max(values) - min(values)) / median
            ok = spread <= bounds[name]
            failed += 0 if ok else 1
            table.append({"workload": workload, "metric": name, "median": median,
                          "spread": spread, "bound": bounds[name], "pass": ok, "values": values})
            print(f"  {workload:<24} {name:<14} median {median:>12.5g}  spread {spread:6.3f}  "
                  f"bound {bounds[name]:.2f}  {'PASS' if ok else 'FAIL'}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "repeat.json").write_text(json.dumps(
        {"seed": args.seed, "repeat": args.repeat, "quick": args.quick,
         "host": fingerprint(), "table": table}, indent=1))
    print(f"  wrote {OUT_DIR / 'repeat.json'}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="drives cosmology parameters, shuffles, staging and serve seeds")
    parser.add_argument("--repeat", type=int, default=0, metavar="K",
                        help="run the untraced suite K times and check the spread of each metric")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: a tenth of the operations")
    parser.add_argument("--workload", choices=list(OPS_AT_REF), help="run one workload only")
    parser.add_argument("--seconds", type=float, default=SECONDS_REF,
                        help="length of the timed window the operation counts are scaled to")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer metrics")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    try:
        contract = load_contract()
        if args.workload:
            return run_one(args, contract)
        if args.repeat:
            return run_repeat(args, contract)
        print_header(args.seed)
        suite = run_suite(args.seed, args.quick, contract)
        print(f"# {'FAILED' if suite['failed'] else 'ok'}: {suite['failed']} failed operations or checks")
        return 1 if suite["failed"] else 0
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
