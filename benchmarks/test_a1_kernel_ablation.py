"""A1 ablation — convolution kernel implementations.

The paper's single-node speedups come from replacing generic kernels
with blocked, vectorized MKL-DNN kernels (Algorithm 1).  The analogue
here: the one-GEMM-per-pass path (NumPy BLAS doing the inner loops in
C) versus the structurally faithful Algorithm-1 direct path (blocked
loops in Python, vectorized only across the innermost block), plus the
two dispatch strategies this repo layers on top:

* ``blocked`` — the direct kernel run natively in the 16-channel-blocked
  layout with cached weight packs (steady-state: no per-call repacks);
* ``auto`` — the shape-keyed autotuner replaying a warmed cache.

The second test is the end-to-end half of the ablation: training the
same two-conv stack per-call-repacked vs natively blocked and counting
layout reorders.  The paper's Section IV complaint — reorders "occur at
various stages of the graph execution" — becomes a measured ratio: the
blocked-e2e path must do at least 10x fewer reorders per step, while
staying bitwise-identical in losses, gradients, and updated weights.
"""

import numpy as np

from benchmarks.conftest import save_report
from repro.primitives import autotune, registry
from repro.primitives.blocked import conv3d_forward_via_blocked
from repro.primitives.conv3d import conv3d_forward
from repro.primitives.direct import conv3d_forward_direct
from repro.primitives.layout import clear_reorder_cache, default_reorder_cache
from repro.utils.timer import Timer

#: Representative CosmoFlow layer shapes at reduced spatial size.
SHAPES = [
    ("conv2-like", 16, 32, 24, 4),
    ("conv3-like", 32, 64, 12, 4),
    ("conv4-like", 64, 64, 8, 3),
]


def run_case(fn, ic, oc, size, k, rng):
    x = rng.standard_normal((1, ic, size, size, size)).astype(np.float32)
    w = rng.standard_normal((oc, ic, k, k, k)).astype(np.float32)
    fn(x, w)  # warm up: weight-pack caches, tuner decisions
    with Timer() as t:
        fn(x, w)
    flops = 2.0 * (size - k + 1) ** 3 * ic * oc * k**3
    return t.elapsed, flops


def test_kernel_ablation(benchmark, tmp_path):
    rng = np.random.default_rng(0)
    tuner = autotune.Autotuner(
        autotune.TuningCache(tmp_path / "autotune.json"), repeats=1
    )
    autotune.set_tuner(tuner)
    auto_forward = registry.get_impl(registry.AUTO_IMPL).forward
    try:
        rows = []
        for name, ic, oc, size, k in SHAPES:
            clear_reorder_cache()
            t_gemm, flops = run_case(conv3d_forward, ic, oc, size, k, rng)
            t_direct, _ = run_case(conv3d_forward_direct, ic, oc, size, k, rng)
            t_blocked, _ = run_case(conv3d_forward_via_blocked, ic, oc, size, k, rng)
            t_auto, _ = run_case(auto_forward, ic, oc, size, k, rng)
            key = autotune.conv_shape_key(
                "forward", (1, ic, size, size, size), (oc, ic, k, k, k)
            )
            pick = tuner.cache.get(key)["impl"]
            rows.append((name, flops, t_gemm, t_direct, t_blocked, t_auto, pick))
    finally:
        autotune.set_tuner(None)
        clear_reorder_cache()

    # benchmark the GEMM path on the middle shape
    _, ic, oc, size, k = SHAPES[1]
    x = rng.standard_normal((1, ic, size, size, size)).astype(np.float32)
    w = rng.standard_normal((oc, ic, k, k, k)).astype(np.float32)
    benchmark.pedantic(conv3d_forward, args=(x, w), rounds=3, iterations=1)

    lines = [
        "A1 ablation: conv3d kernel implementations (forward, warm)",
        f"{'shape':<14}{'Gflop':>8}{'gemm ms':>10}{'direct ms':>11}"
        f"{'blocked ms':>12}{'auto ms':>10}{'auto pick':>11}",
    ]
    for name, flops, tg, td, tb, ta, pick in rows:
        lines.append(
            f"{name:<14}{flops / 1e9:>8.3f}{tg * 1e3:>10.1f}{td * 1e3:>11.1f}"
            f"{tb * 1e3:>12.1f}{ta * 1e3:>10.1f}{pick:>11}"
        )
    lines.append(
        f"\nautotuner: {tuner.misses} shapes timed once, then replayed "
        f"({tuner.hits} warm dispatches); cache at {tuner.cache.path.name}."
        "\n'blocked' is the direct kernel running natively in the "
        "16-channel-blocked layout with content-addressed weight packs — "
        "steady state pays zero per-call repacks.  On large, channel-rich "
        "shapes the paper's blocking gets closest to the single-GEMM path "
        "even in Python; on small tail layers Python loop overhead widens "
        "the gap, which is the trade the autotuner arbitrates per shape."
    )
    save_report("a1_kernel_ablation", "\n".join(lines))

    rates = {
        name: (flops / tg / 1e9, flops / td / 1e9)
        for name, flops, tg, td, _, _, _ in rows
    }
    # Both paths deliver usable throughput everywhere.
    for name, (gemm_rate, direct_rate) in rates.items():
        assert gemm_rate > 1.0 and direct_rate > 1.0, name
    # The blocked layout is at its best on the big conv2-like shape:
    # its relative advantage must be highest there (the paper's design
    # point), and degrade toward the loop-overhead-dominated tail.
    advantage = [tg / td for _, _, tg, td, _, _, _ in rows]
    assert advantage[0] == max(advantage)
    # The tuner never invents an implementation.
    for rec in tuner.cache.entries().values():
        assert rec["impl"] in registry.available_impls()


# -- end-to-end reorder ablation ---------------------------------------------

BATCH = 16
SIZE = 12
STEPS = 2
LR = 1e-3


def _build_stack(impl):
    """Two-conv CosmoFlow-style stack with deterministic weights."""
    from repro.tensor.layers import (
        AvgPool3D,
        Conv3D,
        Dense,
        Flatten,
        LeakyReLU,
        Sequential,
    )

    return Sequential([
        Conv3D(4, 16, 3, rng=np.random.default_rng(1), impl=impl, name="c1"),
        LeakyReLU(),
        AvgPool3D(2),
        Conv3D(16, 32, 2, rng=np.random.default_rng(2), impl=impl, name="c2"),
        LeakyReLU(),
        Flatten(),
        Dense(32 * 4 ** 3, 3, rng=np.random.default_rng(3), name="head"),
    ])


def _train(impl):
    """Run STEPS of SGD; return (losses, final params, metric counters)."""
    from repro.obs import MetricsRegistry
    from repro.tensor import ops
    from repro.tensor.tensor import Tensor

    rng = np.random.default_rng(7)
    x = rng.standard_normal((BATCH, 4, SIZE, SIZE, SIZE)).astype(np.float32)
    y = rng.standard_normal((BATCH, 3)).astype(np.float32)

    metrics = MetricsRegistry()
    registry.set_metrics(metrics)
    clear_reorder_cache()
    net = _build_stack(impl)
    losses = []
    try:
        for _ in range(STEPS):
            for p in net.parameters():
                p.zero_grad()
            loss = ops.mse_loss(net(Tensor(x)), Tensor(y))
            loss.backward()
            losses.append(loss.item())
            for p in net.parameters():
                p.data -= LR * p.grad
    finally:
        registry.set_metrics(None)
    cache = default_reorder_cache()
    snap = dict(metrics.snapshot())
    snap["_cache_hits"] = cache.hits
    snap["_cache_misses"] = cache.misses
    clear_reorder_cache()
    return losses, [p.data.copy() for p in net.parameters()], snap


def test_blocked_e2e_reorder_ablation():
    d_losses, d_params, d_snap = _train("direct")
    b_losses, b_params, b_snap = _train("blocked")

    # Bitwise equality: same losses, same trained weights, every step.
    assert d_losses == b_losses
    for dp, bp in zip(d_params, b_params):
        assert np.array_equal(dp, bp)

    d_reorders = d_snap["primitives.reorder.calls"]
    b_reorders = b_snap["primitives.reorder.calls"]
    # The headline claim: running the stack natively blocked does at
    # least 10x fewer layout reorders per step than per-call repacking.
    assert d_reorders >= 10 * b_reorders, (d_reorders, b_reorders)
    # Weight/bias packs are content-addressed: reused across forward
    # and backward within a step instead of repacked per call.
    assert b_snap["_cache_hits"] > 0
    # No padded-backward gemm fallbacks in either run (padding=0).
    assert d_snap.get("primitives.conv3d.fallbacks", 0) == 0
    assert b_snap.get("primitives.conv3d.fallbacks", 0) == 0

    hit_rate = b_snap["_cache_hits"] / max(
        1, b_snap["_cache_hits"] + b_snap["_cache_misses"]
    )
    lines = [
        "A1 ablation: end-to-end layout reorders "
        f"(batch {BATCH}, {STEPS} steps, 2 conv layers)",
        f"{'impl':<10}{'reorders':>10}{'reorder MB':>12}{'cache hits':>12}"
        f"{'cache miss':>12}",
        f"{'direct':<10}{d_reorders:>10.0f}"
        f"{d_snap['primitives.reorder.bytes'] / 1e6:>12.2f}"
        f"{d_snap['_cache_hits']:>12}{d_snap['_cache_misses']:>12}",
        f"{'blocked':<10}{b_reorders:>10.0f}"
        f"{b_snap['primitives.reorder.bytes'] / 1e6:>12.2f}"
        f"{b_snap['_cache_hits']:>12}{b_snap['_cache_misses']:>12}",
        f"\nreorder ratio: {d_reorders / b_reorders:.1f}x fewer blocked-e2e "
        f"(gate: >= 10x); pack-cache hit rate {hit_rate:.0%}; "
        "losses and trained weights bitwise-identical.",
    ]
    save_report("a1_blocked_e2e", "\n".join(lines))
