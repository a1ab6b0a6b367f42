"""Minimal reverse-mode gradient tape over numpy arrays.

Every differentiable operation in this package computes its result eagerly,
wraps it in a :class:`Node`, and (when a :class:`Tape` is supplied) records a
``(backward, output)`` pair: a closure that pushes the output node's gradient
back to the operation's inputs, and that output node.  Operations are recorded
in execution order, so replaying the tape in reverse visits each one exactly
once in a valid reverse topological order; shared inputs accumulate gradients
additively.  An output that received no gradient is skipped, so a closure may
assume ``out.grad`` is set.

Operations are coarse-grained (a whole convolution, a whole loss) rather than
elementwise, which keeps both the forward pass and the backward pass vectorized.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class Node:
    """A value in the computation graph plus its gradient accumulator.

    A float32 value stays float32, so that a forward pass over float32
    parameters runs in float32; any other value is held as float64."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        value = np.asarray(value)
        self.value = value if value.dtype == np.float32 else value.astype(np.float64, copy=False)
        self.grad: np.ndarray | None = None

    def add_grad(self, g) -> None:
        # in the value's dtype: a float32 node accumulates its gradient in float32
        g = np.asarray(g, dtype=self.value.dtype)
        if self.grad is None:
            # own the buffer: g may be a view into someone else's array
            self.grad = g.copy()
        else:
            self.grad += g

    @property
    def shape(self):
        return self.value.shape


def as_node(x) -> Node:
    return x if isinstance(x, Node) else Node(x)


class Tape:
    """Records backward closures, each with the node it produced, during a forward pass."""

    def __init__(self):
        self._ops: list[tuple[Callable[[], None], Node]] = []

    def record(self, op: Callable[[], None], out: Node) -> None:
        self._ops.append((op, out))

    def backward(self, root: Node, seed=1.0) -> None:
        """Seed ``root.grad`` and replay the recorded closures in reverse,
        skipping each one whose output received no gradient.

        ``seed`` scales the whole gradient; passing ``1/batch_size`` while
        reusing shared parameter nodes across a batch accumulates the
        batch-mean gradient in a fixed, deterministic order.
        """
        if not self._ops:
            raise ValueError("backward on an empty tape: no operations were recorded")
        root.add_grad(np.asarray(seed, dtype=np.float64))
        for op, out in reversed(self._ops):
            if out.grad is not None:
                op()


def cast(a: Node, dtype, tape: Tape | None = None) -> Node:
    """``a`` with its value cast to ``dtype``: ``a`` itself when it already has
    that dtype, else a new node whose gradient is cast back into ``a.grad``."""
    if a.value.dtype == dtype:
        return a
    out = Node(a.value.astype(dtype))
    if tape is not None:
        tape.record(lambda: a.add_grad(out.grad), out)
    return out


def split_columns(a: Node, n: int, tape: Tape | None = None) -> list[Node]:
    """The ``n`` equal column blocks of ``a`` as nodes of their own, such as
    the per-signal representations of a stack that :func:`encoder.encode`
    returned.  Each block's gradient lands in its columns of ``a.grad``."""
    if a.shape[1] % n:
        raise ValueError(f"{a.shape[1]} columns do not split into {n} equal blocks")
    t = a.shape[1] // n
    parts = [Node(a.value[:, k * t : (k + 1) * t]) for k in range(n)]
    if tape is not None:
        for k, part in enumerate(parts):
            def backward(cols=slice(k * t, (k + 1) * t), part=part):
                if a.grad is None:
                    a.grad = np.zeros_like(a.value)
                a.grad[:, cols] += part.grad
            tape.record(backward, part)
    return parts
