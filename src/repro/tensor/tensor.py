"""Reverse-mode automatic differentiation over a dynamic tape.

A :class:`Tensor` wraps a NumPy array.  Calling a layer on one, or
:func:`~repro.tensor.ops.mse_loss`, records on the result its parent
tensors and a backward closure mapping the result's gradient to
per-parent gradients.  :meth:`Tensor.backward` then walks the recorded
graph in reverse topological order, accumulating gradients — the same
reverse-mode algorithm TensorFlow's graph executor runs, minus the
static-graph compilation.

The model trains and predicts as a chain of layers on plain arrays
(:mod:`repro.tensor.layers`); the tape is the adapter the benchmark's
hand-driven step and per-layer probes use.

Design notes
------------
* Gradients are plain ndarrays stored on ``tensor.grad`` and accumulate
  across multiple uses of a tensor (fan-out) and across multiple
  ``backward()`` calls until :meth:`Tensor.zero_grad` — the semantics
  data-parallel SGD needs.
* ``requires_grad`` propagates through recorded nodes; subgraphs that
  cannot reach a parameter are not taped, so inference costs no autograd
  overhead.
* The :func:`no_grad` context manager disables taping globally (used by
  validation loops).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "Parameter", "no_grad"]

DEFAULT_DTYPE = np.float32

_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager disabling tape recording (e.g. validation loops)."""
    prev = _grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


class Tensor:
    """An ndarray with an autograd tape.

    Parameters
    ----------
    data
        Array-like; converted to ``float32`` unless it already has a
        floating dtype.
    requires_grad
        Whether gradients should flow to this tensor.  Leaf tensors
        with ``requires_grad=True`` accumulate into ``.grad``.
    """

    __slots__ = (
        "data",
        "requires_grad",
        "grad",
        "_parents",
        "_backward",
        "op_name",
    )

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(DEFAULT_DTYPE)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None
        self.op_name: str = "leaf"

    # -- construction of taped results -------------------------------------

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], Sequence[np.ndarray | None]],
        op_name: str = "op",
    ) -> "Tensor":
        """Create a result tensor, taping it if grad is enabled and any
        parent requires grad."""
        parents = tuple(parents)
        needs = _grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=needs)
        if needs:
            out._parents = parents
            out._backward = backward
            out.op_name = op_name
        return out

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """The underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """A new leaf sharing this tensor's data, cut from the tape."""
        return Tensor(self.data)

    def __repr__(self) -> str:
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, op={self.op_name}{grad})"

    # -- autograd -----------------------------------------------------------

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Back-propagate from this tensor.

        ``grad`` defaults to ones (so scalars need no argument).
        Gradients accumulate into ``.grad`` of every reachable tensor
        with ``requires_grad``.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a scalar output"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.shape:
            raise ValueError(f"gradient shape {grad.shape} != tensor shape {self.shape}")

        # Iterative reverse topological order (avoid recursion limits on
        # deep graphs).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        # Flowing gradients for interior nodes live in a scratch map so
        # repeated backward() calls do not double-count through stale
        # interior .grad state; leaves accumulate into .grad.
        flow: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            g = flow.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                # Leaf (or detached) tensor: accumulate.
                node.grad = g if node.grad is None else node.grad + g
                continue
            parent_grads = node._backward(g)
            for p, pg in zip(node._parents, parent_grads):
                if pg is None or not p.requires_grad:
                    continue
                pg = np.asarray(pg)
                key = id(p)
                if key in flow:
                    flow[key] = flow[key] + pg
                else:
                    flow[key] = pg


class Parameter(Tensor):
    """A trainable leaf tensor (always ``requires_grad=True``)."""

    __slots__ = ("name",)

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter(name={self.name!r}, shape={self.shape})"
