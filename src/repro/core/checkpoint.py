"""Model/optimizer checkpointing.

The paper's 8192-node runs train in minutes, but its 2048-node
convergence runs span enough epochs that restartability matters — and
the elastic fault-tolerant driver *depends* on checkpoints being there
when the training group loses quorum.  Checkpoints are a single
``.npz``: flat parameters, Adam moments, step counter, and the
architecture preset name for shape validation on load.

Two resilience guarantees:

* **Crash-safe writes.**  State is serialized to a ``*.tmp`` sibling,
  fsync'd, and moved into place with :func:`os.replace` (atomic on
  POSIX).  A rank that dies mid-save leaves the previous checkpoint
  intact — never a half-written file under the final name.
* **Integrity-verified loads.**  The payload carries a CRC32 over the
  parameter and optimizer tensors; a checkpoint that was truncated or
  bit-rotted on disk raises :class:`CheckpointCorruptError` instead of
  silently resuming from garbage.
"""

from __future__ import annotations

import os
import re
import threading
from pathlib import Path
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.core.engine import History
from repro.core.model import CosmoFlowModel
from repro.core.optimizer import CosmoFlowOptimizer
from repro.utils import checksum
from repro.utils.logging import get_logger
from repro.utils.procs import pid_alive

__all__ = [
    "CheckpointError",
    "CheckpointCorruptError",
    "checkpoint_path",
    "pack_training_state",
    "restore_training_state",
    "save_checkpoint",
    "load_checkpoint",
    "latest_checkpoint",
    "load_latest_checkpoint",
    "sweep_stale_tmp",
]

_log = get_logger("core.checkpoint")

_FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint could not be saved or loaded.

    Subclasses :class:`ValueError` so callers that predate the typed
    hierarchy keep working.
    """


class CheckpointCorruptError(CheckpointError):
    """A checkpoint failed integrity verification on load."""

    def __init__(self, message: str, path=None):
        super().__init__(message)
        self.path = Path(path) if path is not None else None


def checkpoint_path(directory, step: int) -> Path:
    """Canonical checkpoint file name for a global step.

    The step number is zero-padded so lexicographic name order is step
    order — the invariant :func:`latest_checkpoint` relies on.  Used by
    :class:`repro.core.engine.CheckpointCallback`.
    """
    if step < 0:
        raise ValueError("step must be >= 0")
    return Path(directory) / f"ckpt-{step:08d}"


def _payload_crc(payload: dict) -> int:
    """CRC32 over the tensor content (keys in sorted order)."""
    crc = 0
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, np.ndarray) and value.ndim > 0:
            crc = checksum.crc32(np.ascontiguousarray(value), crc)
    return crc


def pack_training_state(
    model: CosmoFlowModel,
    optimizer: Optional[CosmoFlowOptimizer] = None,
    history: Optional[History] = None,
) -> Dict[str, np.ndarray]:
    """Training state as named arrays — what a checkpoint stores, a
    joiner is resynced from, and a worker process hands its parent.

    Parameters always; with ``optimizer`` the Adam slots and step
    counters, plus in mixed precision the fp32 masters
    (``flat_parameters`` holds only their fp16 rounding) and the
    loss-scaler counters, so a restored run's next overflow decision is
    the original's; with ``history`` the per-epoch curves.
    """
    state: Dict[str, np.ndarray] = {"flat_parameters": model.get_flat_parameters()}
    if optimizer is not None:
        if len(optimizer.params) != len(model.parameters()):
            raise ValueError("optimizer does not belong to this model")
        state["adam_t"] = np.int64(optimizer.adam.t)
        state["step_count"] = np.int64(optimizer.step_count)
        state["adam_m"] = np.concatenate([m.ravel() for m in optimizer.adam.m])
        state["adam_v"] = np.concatenate([v.ravel() for v in optimizer.adam.v])
        if optimizer.scaler is not None:
            state["master_parameters"] = optimizer.master_flat()
            state["scaler_state"] = optimizer.scaler.state_array()
    if history is not None:
        for key, values in history.as_dict().items():
            state[f"hist_{key}"] = np.asarray(values, dtype=np.float64)
    return state


def restore_training_state(
    state: Mapping[str, np.ndarray],
    model: CosmoFlowModel,
    optimizer: Optional[CosmoFlowOptimizer] = None,
    history: Optional[History] = None,
) -> None:
    """Inverse of :func:`pack_training_state`, in place.

    Mixed-precision and curve entries are restored where present: fp32
    state carries no master/scaler keys (an fp32 optimizer given fp16
    state keeps the rounded parameters), and state written before a
    curve existed leaves that curve untouched.
    """
    model.set_flat_parameters(np.asarray(state["flat_parameters"]))
    if optimizer is not None:
        optimizer.adam.t = int(state["adam_t"])
        optimizer.step_count = int(state["step_count"])
        adam_m, adam_v = np.asarray(state["adam_m"]), np.asarray(state["adam_v"])
        offset = 0
        for m, v in zip(optimizer.adam.m, optimizer.adam.v):
            m[...] = adam_m[offset : offset + m.size].reshape(m.shape)
            v[...] = adam_v[offset : offset + v.size].reshape(v.shape)
            offset += m.size
        if optimizer.scaler is not None:
            if "master_parameters" in state:
                optimizer.set_master_flat(np.asarray(state["master_parameters"]))
            if "scaler_state" in state:
                optimizer.scaler.load_state_array(np.asarray(state["scaler_state"]))
    if history is not None:
        for key, values in history.as_dict().items():
            if f"hist_{key}" in state:
                values[:] = [float(v) for v in state[f"hist_{key}"]]


def save_checkpoint(
    path,
    model: CosmoFlowModel,
    optimizer: Optional[CosmoFlowOptimizer] = None,
    history: Optional[History] = None,
) -> Path:
    """Atomically write model (and optionally optimizer) state to ``path``.

    ``history``, when given, stores the per-epoch training curves so a
    restarted run can report its full span, not just the epochs after
    the resume point.  Returns the written path (``.npz`` appended if
    missing).
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    payload = {
        "format_version": np.int64(_FORMAT_VERSION),
        "config_name": np.str_(model.config.name),
        "n_parameters": np.int64(model.num_parameters),
        **pack_training_state(model, optimizer, history),
    }
    payload["payload_crc32"] = np.int64(_payload_crc(payload))
    # Write-to-temp + fsync + rename: a crash mid-save never clobbers
    # the previous checkpoint under the final name.  The temp name is
    # writer-unique so concurrent savers (e.g. a straggler thread from
    # a pre-restart group) cannot interleave into one temp file.
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_checkpoint(
    path,
    model: CosmoFlowModel,
    optimizer: Optional[CosmoFlowOptimizer] = None,
    history: Optional[History] = None,
) -> None:
    """Restore state saved by :func:`save_checkpoint`, in place.

    The target model must have the same architecture (validated by
    preset name and parameter count).  ``history``, when given, is
    overwritten with the stored per-epoch curves (left untouched if
    the checkpoint predates history support).  Raises
    :class:`CheckpointCorruptError` when the file is unreadable,
    truncated, or fails its CRC.
    """
    path = Path(path)
    # The handle is ours, not NumPy's: on a truncated archive np.load
    # raises from inside NpzFile's constructor without closing the file
    # it opened.
    fh = None
    try:
        fh = open(path, "rb")
        data = np.load(fh, allow_pickle=False)
    except FileNotFoundError:
        raise
    except Exception as exc:
        if fh is not None:
            fh.close()
        raise CheckpointCorruptError(
            f"checkpoint {path} is unreadable ({exc})", path=path
        ) from exc
    with fh, data:
        try:
            version = int(data["format_version"])
            if version != _FORMAT_VERSION:
                raise CheckpointError(f"unsupported checkpoint version {version}")
            if "payload_crc32" in data.files:
                stored = int(data["payload_crc32"])
                arrays = {
                    k: data[k]
                    for k in data.files
                    if k != "payload_crc32" and data[k].ndim > 0
                }
                if _payload_crc(arrays) != stored:
                    raise CheckpointCorruptError(
                        f"checkpoint {path} failed CRC verification "
                        "(truncated or bit-rotted on disk)",
                        path=path,
                    )
            name = str(data["config_name"])
            if name != model.config.name:
                raise CheckpointError(
                    f"checkpoint is for config {name!r}, model is {model.config.name!r}"
                )
            n = int(data["n_parameters"])
            if n != model.num_parameters:
                raise CheckpointError(
                    f"checkpoint has {n} parameters, model has {model.num_parameters}"
                )
            if optimizer is not None and "adam_m" not in data.files:
                raise CheckpointError("checkpoint carries no optimizer state")
            restore_training_state(data, model, optimizer, history)
        except (CheckpointError, FileNotFoundError):
            raise
        except Exception as exc:
            # A key missing from the archive, a zip-member CRC failure,
            # or an undecodable entry is corruption, not a caller error.
            raise CheckpointCorruptError(
                f"checkpoint {path} is missing or has malformed entries ({exc})",
                path=path,
            ) from exc


def latest_checkpoint(directory, pattern: str = "*.npz") -> Optional[Path]:
    """Newest checkpoint in ``directory`` by name order, or ``None``.

    Checkpoint files written by the elastic driver embed a
    zero-padded step number, so lexicographic order is step order.
    ``*.tmp`` leftovers from interrupted saves are ignored.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    candidates: List[Path] = sorted(
        p for p in directory.glob(pattern) if not p.name.endswith(".tmp")
    )
    return candidates[-1] if candidates else None


#: Temp names embed the writer: ``<ckpt>.npz.<pid>-<tid>.tmp``.
_TMP_RE = re.compile(r"\.(\d+)-(\d+)\.tmp$")


def sweep_stale_tmp(directory) -> List[Path]:
    """Remove ``*.tmp`` debris whose writer process is dead.

    :func:`save_checkpoint` unlinks its temp file on any in-process
    failure, but a SIGKILL between the temp write and the atomic rename
    leaves the orphan behind — and a worker that dies *while* another
    is mid-save must not have its debris confused with the live temp
    file.  The pid embedded in the temp name disambiguates: only files
    whose writer no longer exists are reclaimed.  Temp files without a
    parseable pid (foreign debris) are left alone.  Returns the paths
    removed.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    removed: List[Path] = []
    for path in sorted(directory.glob("*.tmp")):
        match = _TMP_RE.search(path.name)
        if match is None or pid_alive(int(match.group(1))):
            continue
        try:
            path.unlink()
        except OSError:
            continue  # a concurrent sweeper got there first
        _log.warning("removed orphaned checkpoint temp file %s", path.name)
        removed.append(path)
    return removed


def load_latest_checkpoint(
    directory,
    model: CosmoFlowModel,
    optimizer: Optional[CosmoFlowOptimizer] = None,
    history: Optional[History] = None,
) -> Optional[Path]:
    """Self-healing load: the newest checkpoint that passes verification.

    Walks the directory newest-first; a checkpoint that fails its CRC
    (or is otherwise corrupt) is skipped — renamed aside with a
    ``.corrupt`` suffix so later scans don't re-verify it — and the next
    older one is tried.  Returns the path actually loaded, or ``None``
    when no loadable checkpoint exists.

    Concurrent callers are safe: a file quarantined by a peer mid-walk
    reads as ``FileNotFoundError`` and is skipped.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    # Recovery is the natural moment to reap crash debris: any ``.tmp``
    # whose writer is dead can never be renamed into place.
    sweep_stale_tmp(directory)
    candidates: List[Path] = sorted(
        (p for p in directory.glob("*.npz") if not p.name.endswith(".tmp")),
        reverse=True,
    )
    for path in candidates:
        try:
            load_checkpoint(path, model, optimizer=optimizer, history=history)
            return path
        except FileNotFoundError:
            continue
        except CheckpointCorruptError as exc:
            _log.warning(
                "checkpoint %s failed verification (%s); falling back to the "
                "previous one", path.name, exc,
            )
            try:
                path.rename(path.with_name(path.name + ".corrupt"))
            except OSError:
                pass  # a concurrent rank already moved it
            continue
    return None
