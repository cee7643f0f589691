"""Tape ops that only the tests' reference computations use.

The per-head references, the matmul-plus-bias and rms_norm chains in
test_tensor.py, the per-group token fake-quant reference in
test_quantizers.py, the tape cache read in test_runtime.py and the test
losses are built from these; test_tensor.py checks their gradients.  Each
is a function over kvq Tensors recorded on the same tape as the library's
ops.
"""

import numpy as np

from kvq.errors import DimensionError
from kvq.tensor import Tensor, _check_broadcast, _unbroadcast


def matmul(a, b):
    """a @ b of two 2-d Tensors."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shape mismatch: {a.shape} x {b.shape}")

    def backward(g, a=a, b=b):
        if a.requires_grad:
            a._accum(g @ b.data.T)
        if b.requires_grad:
            b._accum(a.data.T @ g)

    return Tensor._from_op(a.data @ b.data, (a, b), backward)


def tabs(a):
    def backward(g, a=a):
        if a.requires_grad:
            a._accum(g * np.sign(a.data))

    return Tensor._from_op(np.abs(a.data), (a,), backward)


def sqrt(a):
    def backward(g, a=a):
        if a.requires_grad:
            a._accum(g * 0.5 / np.sqrt(a.data))

    return Tensor._from_op(np.sqrt(a.data), (a,), backward)


def mean(a, axis=None, keepdims=False):
    count = a.data.size if axis is None else a.data.shape[axis]

    def backward(g, a=a):
        if a.requires_grad:
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a._accum((np.broadcast_to(g, a.shape) / count).astype(np.float32))

    return Tensor._from_op(a.data.mean(axis=axis, keepdims=keepdims), (a,), backward)


def tsum(a, axis=None, keepdims=False):
    def backward(g, a=a):
        if a.requires_grad:
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a._accum(np.broadcast_to(g, a.shape).astype(np.float32))

    return Tensor._from_op(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def tmax(a, axis=None, keepdims=False):
    """Max reduction; subgradient routed to the first attaining element."""

    def backward(g, a=a):
        if not a.requires_grad:
            return
        g = np.asarray(g)
        hit = a.data == a.data.max(axis=axis, keepdims=True)
        mask = np.zeros_like(a.data)
        if axis is None:
            mask.flat[np.argmax(hit.ravel())] = 1.0
        else:
            np.put_along_axis(mask, np.expand_dims(np.argmax(hit, axis=axis), axis), 1.0,
                              axis=axis)
            if not keepdims:
                g = np.expand_dims(g, axis)
        a._accum((mask * g).astype(np.float32))

    return Tensor._from_op(a.data.max(axis=axis, keepdims=keepdims), (a,), backward)


def maximum(a, other):
    b = other if isinstance(other, Tensor) else Tensor(other)
    _check_broadcast(a.shape, b.shape)

    def backward(g, a=a, b=b):
        take_a = a.data >= b.data
        if a.requires_grad:
            a._accum(_unbroadcast(g * take_a, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * ~take_a, b.shape))

    return Tensor._from_op(np.maximum(a.data, b.data), (a, b), backward)


def _slice(a, rows, cols):
    def backward(g, a=a):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[rows, cols] = g
            a._accum(full)

    return Tensor._from_op(a.data[rows, cols].copy(), (a,), backward)


def slice_cols(a, start, stop):
    return _slice(a, slice(None), slice(start, stop))


def slice_rows(a, start, stop):
    return _slice(a, slice(start, stop), slice(None))


def concat_cols(parts):
    widths = [p.shape[1] for p in parts]

    def backward(g, parts=parts):
        off = 0
        for p, w in zip(parts, widths):
            if p.requires_grad:
                p._accum(g[:, off : off + w])
            off += w

    return Tensor._from_op(np.concatenate([p.data for p in parts], axis=1), tuple(parts),
                           backward)


def concat_rows(parts):
    heights = [p.shape[0] for p in parts]

    def backward(g, parts=parts):
        off = 0
        for p, h in zip(parts, heights):
            if p.requires_grad:
                p._accum(g[off : off + h, :])
            off += h

    return Tensor._from_op(np.concatenate([p.data for p in parts], axis=0), tuple(parts),
                           backward)
