"""Dense float32 tensors with reverse-mode autodiff on a recorded graph.

Only the operations needed by the quantization pipeline are implemented.
Broadcasting is deliberately restricted to three cases: equal shapes, a
(1, C) row vector against a (T, C) matrix, and a (T, 1) column vector
against a (T, C) matrix.  Python scalars are accepted anywhere.

Rounding uses half-away-from-zero ties everywhere (see round_half_away);
clamp passes gradients only inside the clamp interval.  The tape holds only
the ops the model, calibration and training call.

The transformer primitives work on all heads at once.  rope rotates a
(T, n_heads * head_dim) tensor in one op, slicing cos/sin from a float32
table that repeats each head's angles across the width, is computed in
float64 once per (base, head_dim, width) and is grown on demand.
softmax_causal is an in-place kernel on a plain (..., T, S) array, so a
caller can turn its (heads, T, S) scores buffer into probabilities without
a copy.

Equal-length sequences can be stacked as rows, (B*T, C): rms_norm, silu,
matmul, embedding and cross_entropy work row by row, and rope takes B from
the row count and the T positions (sequences).  The Tensor matmul stays
2-d.

rms_norm, rope and silu take a Tensor, which records a tape op, or a plain
float32 array, which records nothing and runs the same arithmetic: the
runtime forward runs on arrays, calibration and training on Tensors.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateScaleError, DimensionError, KvqError, NumericError

EPS_DIV = 1e-12


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer, ties away from zero (deterministic across platforms)."""
    r = np.abs(x)
    r += 0.5
    np.floor(r, out=r)
    np.copysign(r, x, out=r)
    return r.astype(np.float32, copy=False)


def _as_array(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float32)
    # note: np.ascontiguousarray would promote 0-d scalars to shape (1,)
    if a.ndim and not a.flags["C_CONTIGUOUS"]:
        a = np.ascontiguousarray(a)
    return a


def _check_broadcast(sa: tuple, sb: tuple) -> None:
    if sa == sb or sa == () or sb == ():
        return
    if len(sa) == 2 and len(sb) == 2:
        if sb == (1, sa[1]) or sb == (sa[0], 1):
            return
        if sa == (1, sb[1]) or sa == (sb[0], 1):
            return
    if len(sa) == 1 and len(sb) == 1 and (sa[0] == 1 or sb[0] == 1):
        return
    raise DimensionError(f"incompatible shapes for elementwise op: {sa} vs {sb}")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to `shape` (inverse of the restricted broadcast)."""
    if grad.shape == shape:
        return grad
    if shape == ():
        return grad.sum()
    g = grad
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


class Tensor:
    """A float32 array plus an optional autodiff record."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents, backward) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- elementwise arithmetic -----------------------------------------------

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(other)

    def __add__(self, other):
        b = self._coerce(other)
        _check_broadcast(self.shape, b.shape)
        out_data = self.data + b.data

        def backward(g, a=self, b=b):
            if a.requires_grad:
                a._accum(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(g, b.shape))

        return Tensor._from_op(out_data, (self, b), backward)

    def __sub__(self, other):
        b = self._coerce(other)
        _check_broadcast(self.shape, b.shape)
        out_data = self.data - b.data

        def backward(g, a=self, b=b):
            if a.requires_grad:
                a._accum(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(-g, b.shape))

        return Tensor._from_op(out_data, (self, b), backward)

    def __mul__(self, other):
        b = self._coerce(other)
        _check_broadcast(self.shape, b.shape)
        out_data = self.data * b.data

        def backward(g, a=self, b=b):
            if a.requires_grad:
                a._accum(_unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(g * a.data, b.shape))

        return Tensor._from_op(out_data, (self, b), backward)

    def __truediv__(self, other):
        b = self._coerce(other)
        _check_broadcast(self.shape, b.shape)
        if np.min(np.abs(b.data)) < EPS_DIV:
            raise DegenerateScaleError(
                f"division by near-zero value (|divisor| < {EPS_DIV})"
            )
        out_data = self.data / b.data

        def backward(g, a=self, b=b):
            if a.requires_grad:
                a._accum(_unbroadcast(g / b.data, a.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

        return Tensor._from_op(out_data, (self, b), backward)

    def abs(self):
        out_data = np.abs(self.data)

        def backward(g, a=self):
            if a.requires_grad:
                a._accum(g * np.sign(a.data))

        return Tensor._from_op(out_data, (self,), backward)

    def sqrt(self):
        out_data = np.sqrt(self.data)

        def backward(g, a=self):
            if a.requires_grad:
                a._accum(g * 0.5 / np.sqrt(a.data))

        return Tensor._from_op(out_data, (self,), backward)

    def silu(self):
        s = 1.0 / (1.0 + np.exp(-self.data))
        out_data = self.data * s

        def backward(g, a=self, s=s):
            if a.requires_grad:
                a._accum(g * (s * (1.0 + a.data * (1.0 - s))))

        return Tensor._from_op(out_data, (self,), backward)

    def clamp(self, lo: float, hi: float):
        """Clamp to [lo, hi]; gradient passes only where the input lies inside."""
        out_data = np.clip(self.data, lo, hi)

        def backward(g, a=self, lo=lo, hi=hi):
            if a.requires_grad:
                inside = (a.data >= lo) & (a.data <= hi)
                a._accum(g * inside)

        return Tensor._from_op(out_data, (self,), backward)

    # -- reductions -----------------------------------------------------------

    def mean(self, axis=None, keepdims: bool = False):
        out_data = self.data.mean(axis=axis, keepdims=keepdims)
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]

        def backward(g, a=self, axis=axis, keepdims=keepdims, count=count):
            if a.requires_grad:
                g = np.asarray(g)
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                a._accum((np.broadcast_to(g, a.shape) / count).astype(np.float32))

        return Tensor._from_op(out_data, (self,), backward)

    # -- linear algebra / structure -------------------------------------------

    def matmul(self, other: "Tensor"):
        b = self._coerce(other)
        if self.ndim != 2 or b.ndim != 2 or self.shape[1] != b.shape[0]:
            raise DimensionError(
                f"matmul shape mismatch: {self.shape} x {b.shape}"
            )
        out_data = self.data @ b.data

        def backward(g, a=self, b=b):
            if a.requires_grad:
                a._accum(g @ b.data.T)
            if b.requires_grad:
                b._accum(a.data.T @ g)

        return Tensor._from_op(out_data, (self, b), backward)

    __matmul__ = matmul

    # -- autodiff driver ------------------------------------------------------

    def _accum(self, g: np.ndarray) -> None:
        g = np.asarray(g, dtype=np.float32)
        if self.grad is None:
            self.grad = g.copy().reshape(self.shape)
        else:
            self.grad = self.grad + g.reshape(self.shape)

    def backward(self) -> None:
        """Reverse sweep from a scalar loss; clears the recorded graph."""
        if self.shape != ():
            raise KvqError(f"backward() requires a scalar loss, got shape {self.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.asarray(1.0, dtype=np.float32)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
        # release the graph so a tape is never reused
        for node in order:
            node._parents = ()
            node._backward = None


# -- transformer primitives ---------------------------------------------------


def _check_finite(name: str, x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise NumericError(f"{name}: non-finite input")


def softmax_causal(scores: np.ndarray, offset: int = 0) -> np.ndarray:
    """In-place causal softmax over the last axis of a (..., T, S) float32 array.

    Query row i (absolute position offset + i) may attend key columns
    j <= offset + i; masked entries come out exactly zero.  Leading axes
    (heads) share the mask.  Returns scores, now holding the probabilities.
    """
    _check_finite("softmax_causal", scores)
    t, s = scores.shape[-2:]
    if s > offset + 1:
        masked = np.arange(s)[None, :] > np.arange(t)[:, None] + offset
        np.copyto(scores, -np.inf, where=masked)
    # the reductions of .max and .sum, without their wrappers' cost
    scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= np.add.reduce(scores, axis=-1, keepdims=True)
    return scores


def rms_norm(x, gain, eps: float = 1e-6):
    """RMS normalization over the channel axis with a gain row (learnable on Tensors)."""
    if not isinstance(x, Tensor):
        _check_finite("rms_norm", x)
        # the sum and division of mean(axis=1), without its wrapper's cost
        ms = np.add.reduce(x * x, axis=1, keepdims=True) / x.shape[1]
        return x / np.sqrt(ms + np.float32(eps)) * gain
    _check_finite("rms_norm", x.data)
    ms = (x * x).mean(axis=1, keepdims=True)
    inv = (ms + Tensor(np.full((x.shape[0], 1), eps, dtype=np.float32))).sqrt()
    return (x / inv) * gain


# Byte boundary of the rope tables and the KV cache's buffers.  NumPy's vector
# loops run fast only on aligned rows, and a large allocation usually starts
# 16 bytes past one: multiplying (896, 128) float32 arrays took 22 us aligned
# and 46-49 us at 16 or 32 bytes off (2-vCPU Xeon VM).
ALIGN = 64


def aligned_zeros(shape: tuple, dtype=np.float32, count: int = 1) -> np.ndarray:
    """count C-ordered arrays of zeros as one (count, *shape) array, from one
    allocation: each [i] starts on an ALIGN-byte boundary, and so does each
    of its rows whose byte width is a multiple of ALIGN."""
    size = math.prod(shape) * np.dtype(dtype).itemsize
    step = -(-size // ALIGN) * ALIGN
    raw = np.zeros(count * step + ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % ALIGN
    raw = raw[start : start + count * step].reshape(count, step)[:, :size]
    return raw.view(dtype).reshape(count, *shape)


_ROPE_TABLES: dict[tuple[float, int, int], tuple[np.ndarray, np.ndarray]] = {}


def rope_table(base: float, head_dim: int, width: int,
               length: int) -> tuple[np.ndarray, np.ndarray]:
    """Rotary (cos, sin) tables of shape (>= length, width), float32.

    With angles p * base^(-2i / head_dim) for position p and pair i, row p
    holds [cos, cos] and [-sin, sin] across the two halves of a head, repeated
    for each of the width // head_dim heads, so a rotation multiplies whole
    rows.  The angles are computed in float64, once per (base, head_dim,
    width); the table at least doubles whenever a longer range is asked for.
    A row depends only on its key and position, so every caller can share the
    cached tables, which start on an ALIGN-byte boundary.
    """
    key = (float(base), head_dim, width)
    cos, sin = _ROPE_TABLES.get(key, (None, None))
    if cos is None or len(cos) < length:
        n = max(length, 2 * len(cos)) if cos is not None else length
        half = head_dim // 2
        inv_freq = base ** (-np.arange(half, dtype=np.float64) * 2.0 / head_dim)
        ang = np.arange(n, dtype=np.float64)[:, None] * inv_freq[None, :]
        c, s = np.cos(ang).astype(np.float32), np.sin(ang).astype(np.float32)
        reps = width // head_dim
        cos, sin = aligned_zeros((n, width), count=2)
        cos[...] = np.tile(np.concatenate([c, c], axis=1), reps)
        sin[...] = np.tile(np.concatenate([-s, s], axis=1), reps)
        _ROPE_TABLES[key] = (cos, sin)
    return cos, sin


def sequences(rows: int, positions: np.ndarray) -> int:
    """How many sequences of len(positions) rows are stacked in rows; a row
    count that is not a multiple raises DimensionError."""
    t = len(positions)
    if rows % t if t else rows:
        raise DimensionError(f"{rows} rows do not stack sequences of {t} positions")
    return rows // t if t else 1


def rope(x, positions: np.ndarray, base: float = 10000.0, head_dim: int | None = None,
         out: np.ndarray | None = None):
    """Rotary position embedding on a (B*T, n_heads * head_dim) Tensor or array.

    x stacks B equal-length sequences as rows, each at the T positions given
    (sequences); every row of a sequence takes its position's table row.
    Every head is rotated in the rotate-half layout, [x1, x2] ->
    [x1 cos - x2 sin, x2 cos + x1 sin]; head_dim defaults to the full width
    (one head).  positions must be a contiguous ascending range, so cos/sin
    are a slice of rope_table.  An array result is written to out when given
    (out may be x itself).
    """
    tape = isinstance(x, Tensor)
    _check_finite("rope", x.data if tape else x)
    rows, width = x.shape
    d = width if head_dim is None else head_dim
    if d % 2 != 0 or width % d != 0:
        raise DimensionError(f"rope requires an even head_dim dividing {width}, got {d}")
    positions = np.asarray(positions)
    t = positions.shape[0] if positions.ndim == 1 else 0
    start = int(positions[0]) if t else 0
    if (positions.ndim != 1 or start < 0 or (t > 1 and np.any(np.diff(positions) != 1))
            or (rows % t if t else rows)):
        raise DimensionError("rope positions must be a contiguous range from >= 0, "
                             "one per row of each stacked sequence")
    cos, sin = rope_table(base, d, width, start + t)
    cos, sin = cos[start : start + t], sin[start : start + t]
    if rows > t:  # every stacked sequence takes the same table rows
        cos, sin = np.tile(cos, (rows // t, 1)), np.tile(sin, (rows // t, 1))

    def rotate(a: np.ndarray, sin_rows: np.ndarray, out=None) -> np.ndarray:
        # the swapped halves are one copy of a view with the half axis
        # reversed, taken before out is written, so out may be a
        swapped = np.ascontiguousarray(a.reshape(rows, width // d, 2, d // 2)[:, :, ::-1])
        swapped = swapped.reshape(rows, width)
        swapped *= sin_rows
        out = np.multiply(a, cos, out=out)
        out += swapped
        return out

    if not tape:
        return rotate(x, sin, out)

    def backward(g, a=x):
        if a.requires_grad:
            a._accum(rotate(g, -sin))  # the transpose rotates by -angle

    return Tensor._from_op(rotate(x.data, sin), (x,), backward)


def silu(x):
    """x * sigmoid(x) of a Tensor (a tape op) or an array."""
    if isinstance(x, Tensor):
        return x.silu()
    return x * (1.0 / (1.0 + np.exp(-x)))


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer targets under row-wise softmax."""
    _check_finite("cross_entropy", logits.data)
    t = logits.shape[0]
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    nll = -np.log(np.maximum(p[np.arange(t), targets], 1e-30))
    out_data = np.asarray(nll.mean(), dtype=np.float32)

    def backward(g, a=logits, p=p, targets=targets, t=t):
        if a.requires_grad:
            d = p.copy()
            d[np.arange(t), targets] -= 1.0
            a._accum(g * d / t)

    return Tensor._from_op(out_data, (logits,), backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather from an embedding table; backward scatter-adds."""
    ids = np.asarray(ids, dtype=np.int64)
    out_data = table.data[ids]

    def backward(g, a=table, ids=ids):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, ids, g)
            a._accum(full)

    return Tensor._from_op(out_data, (table,), backward)
