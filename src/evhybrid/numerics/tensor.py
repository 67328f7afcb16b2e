"""Dense tensors with a record/replay gradient tape.

Ops execute eagerly on numpy buffers. While a :class:`GradTape` is active,
every op whose output needs gradients appends a node ``(name, output, inputs,
pullback)`` to the tape. ``GradTape.gradients`` replays nodes in reverse
recording order; recording order is a valid topological order because a node
can only be recorded after all of its input tensors exist.

dtype convention: ``WIDE`` (float64) for finite-difference gradient checks,
``NARROW`` (float32) for training/inference, integer dtypes for the
fixed-point execution path.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import NumericError, ShapeError

WIDE = np.float64
NARROW = np.float32

Pullback = Callable[[np.ndarray], Sequence["np.ndarray | None"]]


class Tensor:
    """A shaped buffer of values, optionally tracked by the active tape."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        if arr.size == 0:
            raise ShapeError(f"tensor has a zero extent: shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def astype(self, dtype) -> "Tensor":
        # plain cast, not differentiable; use on leaves/constants only
        return Tensor(self.data.astype(dtype), requires_grad=self.requires_grad)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{flag})"

    # Arithmetic sugar is attached by evhybrid.numerics.ops at import time.


class GradTape:
    """Recorded forward pass; replays pullbacks in reverse topological order.

    One tape per training step. Single writer: do not share an active tape
    across concurrently running forward passes.
    """

    def __init__(self, check_finite: bool = False):
        self._nodes: list[tuple[str, Tensor, tuple, Pullback]] = []
        self.check_finite = check_finite

    def __enter__(self) -> "GradTape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def record(self, name: str, output: Tensor, inputs: tuple, pullback: Pullback):
        self._nodes.append((name, output, inputs, pullback))

    def gradients(
        self,
        loss: Tensor,
        sources: Iterable[Tensor],
        seed: np.ndarray | None = None,
    ) -> list[np.ndarray]:
        """Adjoints of ``loss`` w.r.t. each tensor in ``sources``."""
        adjoints = self._walk(loss, seed)
        out = []
        for s in sources:
            g = adjoints.get(id(s))
            out.append(np.zeros_like(s.data) if g is None else g)
        return out

    def backward(self, loss: Tensor, seed: np.ndarray | None = None):
        """Accumulate adjoints into ``.grad`` of every requires_grad leaf."""
        adjoints = self._walk(loss, seed)
        seen: set[int] = set()
        for _, _, inputs, _ in self._nodes:
            for t in inputs:
                if isinstance(t, Tensor) and t.requires_grad and id(t) not in seen:
                    seen.add(id(t))
                    g = adjoints.get(id(t))
                    if g is None:
                        continue
                    t.grad = g if t.grad is None else t.grad + g

    def _walk(self, loss: Tensor, seed: np.ndarray | None) -> dict[int, np.ndarray]:
        if seed is None:
            seed = np.ones_like(loss.data)
        adjoints: dict[int, np.ndarray] = {id(loss): np.asarray(seed)}
        for name, output, inputs, pullback in reversed(self._nodes):
            g_out = adjoints.get(id(output))
            if g_out is None:
                continue
            grads = pullback(g_out)
            for t, g in zip(inputs, grads):
                if g is None or not isinstance(t, Tensor):
                    continue
                if g.shape != t.data.shape:
                    raise ShapeError(
                        f"adjoint of {name!r} has shape {g.shape}, primal {t.data.shape}"
                    )
                if self.check_finite and not np.all(np.isfinite(g)):
                    raise NumericError(f"non-finite gradient produced by node {name!r}")
                prev = adjoints.get(id(t))
                adjoints[id(t)] = g if prev is None else prev + g
        return adjoints


_TAPE_STACK: list[GradTape] = []


def active_tape() -> GradTape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None
