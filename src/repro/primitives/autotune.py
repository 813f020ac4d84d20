"""Shape-keyed kernel autotuner with a persisted tuning cache.

The paper gets its single-node speed from hand-picked MKL-DNN kernels;
which formulation wins (one-GEMM-per-pass, Algorithm-1 direct,
blocked-native) depends on the layer shape.  Rather than hard-coding
that table, the ``"auto"`` registry policy races the candidates **once
per shape key** and replays the winner forever after:

* Key: ``(op, input shape, weight shape, stride, padding, layout)``
  canonicalized to a string (see :func:`conv_shape_key`).
* First encounter (cache miss): every candidate runs ``repeats`` times
  on the *real* inputs; the fastest wins, the measured times are
  persisted, and the winner's (already computed) output is returned.
  This is the only timed — hence nondeterministic-in-choice — phase.
* Warm cache: :meth:`Autotuner.cached_choice` returns the persisted
  winner and dispatch is a deterministic table lookup; results are
  bitwise-reproducible run to run.

The cache is a versioned JSON file at ``~/.cache/repro/autotune.json``
(override with ``$REPRO_AUTOTUNE_CACHE`` or the CLI ``tune --cache``),
written atomically; a version mismatch discards the file.  Counters
``primitives.autotune.{hits,misses}`` land on the registry's metrics.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, Sequence

import numpy as np

from repro.primitives.conv3d import _triple

__all__ = [
    "CACHE_VERSION",
    "default_cache_path",
    "conv_shape_key",
    "TuningCache",
    "Autotuner",
    "get_tuner",
    "set_tuner",
    "reset_tuner",
    "warm_conv_shapes",
]

#: Bump when the key format or record schema changes, or a kernel rewrite
#: makes persisted timings stale (2: one-GEMM-per-pass ``gemm``); mismatched
#: caches are discarded wholesale (re-tuning is cheap, wrong replay is not).
CACHE_VERSION = 2

_ENV_VAR = "REPRO_AUTOTUNE_CACHE"


def default_cache_path() -> Path:
    """``$REPRO_AUTOTUNE_CACHE`` if set, else ``~/.cache/repro/autotune.json``."""
    env = os.environ.get(_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "autotune.json"


def conv_shape_key(
    op: str, x_shape, w_shape, stride=1, padding=0, layout: str = "ncdhw"
) -> str:
    """Canonical string key for one conv call site.

    ``x_shape`` is the primary operand's shape (input for forward /
    backward_weights, grad_out for backward_data); ``w_shape`` the
    secondary's.  Stride/padding are normalized through ``_triple`` so
    ``stride=2`` and ``stride=(2, 2, 2)`` share a key.
    """
    s = _triple(stride)
    p = _triple(padding)
    fmt = lambda t: "x".join(str(int(v)) for v in t)  # noqa: E731
    return f"{op}|a={fmt(x_shape)}|b={fmt(w_shape)}|s={fmt(s)}|p={fmt(p)}|l={layout}"


def _metrics():
    from repro.primitives import registry as _registry

    return _registry.get_metrics()


def _count(name: str) -> None:
    m = _metrics()
    if m is not None:
        m.counter(f"primitives.autotune.{name}").add(1)


class TuningCache:
    """Versioned, atomically-persisted JSON store of tuning decisions."""

    def __init__(self, path: str | Path | None = None):
        self._explicit_path = Path(path) if path is not None else None
        self._entries: Dict[str, dict] = {}
        self._loaded = False
        self._lock = threading.RLock()

    @property
    def path(self) -> Path:
        # Resolved lazily so env-var changes (tests, CLI) take effect.
        return self._explicit_path if self._explicit_path is not None else default_cache_path()

    def _load(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        try:
            doc = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return
        if not isinstance(doc, dict) or doc.get("version") != CACHE_VERSION:
            _count("invalidated")
            return
        entries = doc.get("entries")
        if isinstance(entries, dict):
            self._entries = {str(k): dict(v) for k, v in entries.items() if isinstance(v, dict)}

    def save(self) -> None:
        with self._lock:
            self._load()
            doc = {"version": CACHE_VERSION, "entries": self._entries}
            path = self.path
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(path.name + ".tmp")
            tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
            os.replace(tmp, path)

    def get(self, key: str) -> dict | None:
        with self._lock:
            self._load()
            return self._entries.get(key)

    def put(self, key: str, record: dict, persist: bool = True) -> None:
        with self._lock:
            self._load()
            self._entries[key] = record
        if persist:
            self.save()

    def entries(self) -> Dict[str, dict]:
        with self._lock:
            self._load()
            return dict(self._entries)

    def clear(self, delete_file: bool = True) -> None:
        with self._lock:
            self._entries = {}
            self._loaded = True
            if delete_file:
                try:
                    self.path.unlink()
                except OSError:
                    pass

    def __len__(self) -> int:
        with self._lock:
            self._load()
            return len(self._entries)


class Autotuner:
    """Races kernel candidates per shape key; replays persisted winners.

    ``repeats`` timed runs per candidate, best-of (min) wall time — the
    standard defense against one-off scheduler noise.  Candidate
    callables run on the real inputs, so tuning doubles as computing the
    answer: :meth:`tune` hands back the winner's output.
    """

    def __init__(self, cache: TuningCache | None = None, repeats: int = 2):
        if repeats <= 0:
            raise ValueError("repeats must be positive")
        self.cache = cache if cache is not None else TuningCache()
        self.repeats = repeats
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    def cached_choice(self, key: str) -> str | None:
        """The persisted winner for ``key`` (``None`` = not tuned yet)."""
        record = self.cache.get(key)
        if record is None:
            return None
        impl = record.get("impl")
        if not isinstance(impl, str):
            return None
        self.hits += 1
        _count("hits")
        return impl

    def tune(
        self,
        key: str,
        candidates: Sequence[str],
        runner: Callable[[str], object],
    ) -> tuple[str, object]:
        """Time ``runner(name)`` for each candidate; persist and return
        the winner and its output."""
        if not candidates:
            raise ValueError("no candidates to tune over")
        self.misses += 1
        _count("misses")
        times_ms: Dict[str, float] = {}
        best_name = None
        best_time = float("inf")
        best_out = None
        for name in candidates:
            elapsed = float("inf")
            out = None
            for _ in range(self.repeats):
                t0 = time.perf_counter()
                out = runner(name)
                elapsed = min(elapsed, time.perf_counter() - t0)
            times_ms[name] = elapsed * 1e3
            if elapsed < best_time:
                best_name, best_time, best_out = name, elapsed, out
        record = {
            "impl": best_name,
            "times_ms": {k: round(v, 6) for k, v in times_ms.items()},
            "repeats": self.repeats,
        }
        with self._lock:
            self.cache.put(key, record)
        return best_name, best_out


_TUNER: Autotuner | None = None
_TUNER_LOCK = threading.Lock()


def get_tuner() -> Autotuner:
    """The process-wide autotuner backing the ``"auto"`` registry policy."""
    global _TUNER
    with _TUNER_LOCK:
        if _TUNER is None:
            _TUNER = Autotuner()
        return _TUNER


def set_tuner(tuner: Autotuner | None) -> None:
    """Swap the process-wide autotuner (tests, custom cache paths)."""
    global _TUNER
    with _TUNER_LOCK:
        _TUNER = tuner


def reset_tuner(cache_path: str | Path | None = None, repeats: int = 2) -> Autotuner:
    """Replace the global tuner with a fresh one over ``cache_path``."""
    tuner = Autotuner(TuningCache(cache_path), repeats=repeats)
    set_tuner(tuner)
    return tuner


def warm_conv_shapes(
    shapes: Iterable[tuple],
    batch: int = 1,
    seed: int = 0,
    ops: Sequence[str] = ("forward", "backward_data", "backward_weights"),
    tuner: Autotuner | None = None,
) -> list[tuple[str, str]]:
    """Drive the ``"auto"`` policy over synthetic inputs to fill the cache.

    ``shapes`` holds ``(in_channels, out_channels, size, kernel, stride,
    padding)`` tuples (cubic volumes — the CosmoFlow case).  Returns the
    ``(shape_key, winning_impl)`` decisions made or confirmed, in call
    order.  Used by ``repro tune warm`` and the CI kernels-smoke job.
    """
    from repro.primitives import registry

    if tuner is not None:
        set_tuner(tuner)
    active = get_tuner()
    rng = np.random.default_rng(seed)
    impl = registry.get_impl(registry.AUTO_IMPL)
    decisions: list[tuple[str, str]] = []

    def note(key: str) -> None:
        record = active.cache.get(key)
        if record is not None:
            decisions.append((key, record["impl"]))

    for ic, oc, size, k, stride, padding in shapes:
        x = rng.standard_normal((batch, ic, size, size, size)).astype(np.float32)
        w = (rng.standard_normal((oc, ic, k, k, k)) * 0.1).astype(np.float32)
        b = rng.standard_normal(oc).astype(np.float32)
        out = impl.forward(x, w, b, stride=stride, padding=padding)
        if "forward" in ops:
            note(conv_shape_key("forward", x.shape, w.shape, stride, padding))
        g = rng.standard_normal(out.shape).astype(np.float32)
        if "backward_data" in ops:
            impl.backward_data(g, w, x.shape[2:], stride=stride, padding=padding)
            note(conv_shape_key("backward_data", g.shape, w.shape, stride, padding))
        if "backward_weights" in ops:
            impl.backward_weights(
                x, g, w.shape[2:], stride=stride, padding=padding, with_bias=True
            )
            note(conv_shape_key("backward_weights", x.shape, g.shape, stride, padding))
    return decisions
