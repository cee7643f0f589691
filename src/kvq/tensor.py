"""Dense float32 tensors with reverse-mode autodiff on a recorded graph.

Only the operations needed by the quantization pipeline are implemented.
Broadcasting is deliberately restricted to equal shapes and a (1, C) row
vector against a (T, C) matrix.  Python scalars are accepted anywhere.

Rounding uses half-away-from-zero ties everywhere (see round_half_away).
The tape holds only the ops that training (evaluate.train_model) records;
calibration runs on arrays.

The transformer primitives work on all heads at once.  rope rotates a
(T, n_heads * head_dim) tensor in one op, slicing cos/sin from a float32
table that repeats each head's angles across the width, is computed in
float64 once per (base, head_dim, width) and is grown on demand.
exp_causal and softmax_causal are in-place kernels on a plain (..., T, S)
array, so a caller can turn its (heads, T, S) scores buffer into masked
exponentials (and their row sums) or into probabilities without a copy.

Equal-length sequences can be stacked as rows, (B*T, C): rms_norm,
linear, gated_mlp, embedding and cross_entropy work row by row, and rope
takes B from the row count and the T positions (sequences) and broadcasts
the T table rows over a (B, T, C) view.

rms_norm, rope, linear and gated_mlp take a Tensor, which records one tape
op, or a plain float32 array, which records nothing and runs the same
arithmetic: the runtime forward and calibration run on arrays, training on
Tensors.  linear is a projection x @ w + b with a (1, N) bias row: one tape
node whose backward gives all three gradients, or on arrays one product
with the bias added in place.  gated_mlp is the block's whole MLP,
(silu(x @ wg + bg) * (x @ wu + bu)) @ wd + bd, as one node.

The tape's ops are the Tensor method + (the residual adds), and the
functions rms_norm, rope, linear, gated_mlp, cross_entropy and embedding
(model.causal_attention adds attention).  + coerces a scalar operand,
checks the broadcast and sums the gradient down to each operand's shape.

The tape is a graph of records, not of Tensors.  A Tensor holds its data
and, when it needs a gradient, its Record.  A Record holds its shape, its
backward closure, its parents' records and, during a sweep, its gradient;
it holds no array of values.  A backward closure captures an array only if
a gradient it will form reads it, so a value lives as long as a Python name
or a closure that reads it refers to it, and dies with its last reference,
whether or not the sweep has reached the op that made it:
  * +: nothing;
  * rope: nothing (its backward rotates the gradient by the same table
    rows), so a pre-rotation q or k dies once rotated;
  * linear: its input only when its weight needs a gradient, its weight
    only when its input does; so the outputs of the o and down projections,
    which feed residual adds, and the logits, which cross_entropy does not
    read, die as soon as their consumer has run;
  * rms_norm: its input and the (rows, 1) root mean squares r, not the
    normalized rows x / r, which the gain's gradient recomputes;
  * gated_mlp: the gate and up projections g and u (and its input when a
    gate or up weight needs a gradient), not silu(g) or the product, which
    its backward recomputes from g and u;
  * cross_entropy: the softmax probabilities; embedding: the ids.

No backward writes into a gradient it receives or passes on, and nothing
else does either: a gradient array is only ever read.  So Record.accum
keeps the first gradient a record receives as its .grad without a copy,
even when the same array is also another record's gradient (an add passes
g to both operands), and sums later ones into a new array.

Tensor.backward releases each op record's backward, parents and .grad
right after that backward has run, so a sweep holds the arrays the
unswept backwards read, the gradients in flight and the leaves' gradients,
never every op's gradient at once.  Leaves (records with no backward) keep
their .grad for the optimizer.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, KvqError, NumericError, UsageError



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
    if len(sa) == 2 and len(sb) == 2 and (sb == (1, sa[1]) or sa == (1, sb[1])):
        return
    raise DimensionError(f"incompatible shapes for elementwise op: {sa} vs {sb}")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to a (1, C) row's `shape` (inverse of the restricted
    broadcast; a Python scalar operand needs no gradient)."""
    return grad if grad.shape == shape else grad.sum(axis=0, keepdims=True)


class Record:
    """A Tensor's place on the tape: its shape, its backward and its
    parents' records (none for a leaf), and the gradient summed into it.

    backward(g) receives the record's gradient and passes each parent that
    needs one its part through that parent's accum; it reads only the
    arrays it captured, never a Tensor."""

    __slots__ = ("shape", "backward", "parents", "grad")

    def __init__(self, shape: tuple, parents: tuple = (), backward=None):
        self.shape = shape
        self.backward = backward
        self.parents = parents
        self.grad: np.ndarray | None = None

    def accum(self, g: np.ndarray) -> None:
        """Add g to .grad.  The first g is kept as it is, not copied, so g
        must never be written afterwards (see the module docstring)."""
        g = np.asarray(g, dtype=np.float32).reshape(self.shape)
        self.grad = g if self.grad is None else self.grad + g


class Tensor:
    """A float32 array plus, when it needs a gradient, its tape Record."""

    __slots__ = ("data", "record")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.record: Record | None = Record(self.data.shape) if requires_grad else None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents, backward) -> "Tensor":
        """The Tensor of an op's output data, recorded with its backward
        when any of its parent Tensors needs a gradient."""
        out = Tensor(data)
        records = tuple(p.record for p in parents if p.record is not None)
        if records:
            out.record = Record(out.data.shape, records, backward)
        return out

    @property
    def grad(self) -> np.ndarray | None:
        return None if self.record is None else self.record.grad

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.record is not None})"

    # -- the one elementwise op ------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(other)

    def __add__(self, other):
        """self + other as one tape op, other coerced and broadcast-checked;
        each operand that needs a gradient receives g, summed down to its
        shape."""
        b = self._coerce(other)
        _check_broadcast(self.shape, b.shape)
        ra, rb = self.record, b.record

        def backward(g):
            for r in (ra, rb):
                if r is not None:
                    r.accum(_unbroadcast(g, r.shape))

        return Tensor._from_op(self.data + b.data, (self, b), backward)

    # -- autodiff driver ------------------------------------------------------

    def backward(self) -> None:
        """Reverse sweep from a scalar loss that releases the tape as it goes.

        Each op record (one with a backward) is freed as soon as its
        backward has run: its backward, its parents and its .grad are
        dropped, so the arrays its backward captured, and the gradient it
        received, go as soon as nothing else holds them.  A leaf record (no
        backward) keeps its .grad, summed over every path to it.  The loss
        is an op too, so afterwards it has no tape, and a second backward()
        adds nothing to any leaf; a loss that needs no gradient has none to
        sweep.  If a backward raises, the sweep stops there and leaves a
        partly released tape: the records swept before it are released, it
        and the rest keep theirs, and their gradients (and the leaves') hold
        only what was summed so far.
        """
        if self.shape != ():
            raise KvqError(f"backward() requires a scalar loss, got shape {self.shape}")
        if self.record is None:
            return
        order: list[Record] = []
        seen: set[int] = set()
        stack: list[tuple[Record, bool]] = [(self.record, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.record.grad = np.asarray(1.0, dtype=np.float32)
        # popping drops the sweep's own reference to each record as it is done
        while order:
            node = order.pop()
            if node.backward is None:
                continue
            if node.grad is not None:
                node.backward(node.grad)
            node.backward, node.parents, node.grad = None, (), None


# -- transformer primitives ---------------------------------------------------


def _check_finite(name: str, x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise NumericError(f"{name}: non-finite input")


def exp_causal(scores: np.ndarray, offset: int = 0) -> np.ndarray:
    """The causal softmax of a (..., T, S) float32 array up to its division,
    in place: returns the (..., T, 1) row sums that would normalize it.

    Query row i sits at position offset + i (offset >= 0) and may attend
    key columns j <= offset + i.  Non-finite scores raise NumericError.  Only
    the columns past offset are masked, with a T-row triangle (and every
    column from offset + T), not a mask as wide as S.  Each row's maximum is
    subtracted and the exponentials are taken in place, so masked entries
    come out exactly zero.  Leading axes (heads) share the mask.  The
    runtime attention divides its P . V product by the sums (model.
    causal_attention, and the fold of a decode step over a cache of codes,
    PoqKvCache.read_raw) on every call whose scores it has not bounded
    below model.SCORE_LIMIT, so each runtime path either checks its scores
    here or has proved them finite.  softmax_causal divides the scores
    themselves.
    """
    _check_finite("softmax_causal", scores)
    t, s = scores.shape[-2:]
    if s > offset + 1:
        # column offset + 1 + j is masked for the rows i <= j
        masked = np.arange(s - offset - 1) >= np.arange(t)[:, None]
        np.copyto(scores[..., offset + 1 :], -np.inf, where=masked)
    # the reductions of .max and .sum, without their wrappers' cost
    scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    return np.add.reduce(scores, axis=-1, keepdims=True)


def softmax_causal(scores: np.ndarray, offset: int = 0) -> np.ndarray:
    """In-place causal softmax over the last axis of a (..., T, S) float32
    array: exp_causal, then each row divided by its sum.  Returns scores,
    now holding the probabilities.  The tape's attention runs it, since its
    backward needs the probabilities; the runtime forward normalizes after
    P . V instead."""
    scores /= exp_causal(scores, offset)
    return scores


# rms_norm's epsilon, and model._row_rms_norm's
RMS_EPS = np.float32(1e-6)


def rms_norm(x, gain):
    """RMS normalization over the channel axis with a gain row (learnable on
    Tensors).

    On Tensors it is one tape op computing x / sqrt(mean(x * x) + RMS_EPS) *
    gain: x receives g * gain / r, then the mean-square path's term twice
    (once per x of x * x), as three separate additions.  That float32
    arithmetic and order stay bit for bit: test_rms_norm_matches_elementwise_chain
    checks them against the chain written out op by op in float32, and
    test_losses_and_weights_pinned hashes what training computes through it.
    Its backward keeps x, the gain and the (rows, 1) root mean squares r;
    the gain's gradient recomputes the normalized rows x / r.

    On arrays the same operations, in the same order, write into the x * x
    buffer: the quotient x / r, then its product with the gain, so a call
    allocates one (rows, C) array."""
    if not isinstance(x, Tensor):
        _check_finite("rms_norm", x)
        sq = x * x
        # the sum and division of mean(axis=1), without its wrapper's cost
        ms = np.add.reduce(sq, axis=1, keepdims=True) / x.shape[1]
        out = np.divide(x, np.sqrt(ms + RMS_EPS), out=sq)
        out *= gain
        return out
    _check_finite("rms_norm", x.data)
    gain = x._coerce(gain)
    rx, rg = x.record, gain.record
    xd, gd = x.data, gain.data
    r = np.sqrt((xd * xd).mean(axis=1, keepdims=True) + RMS_EPS)
    out = xd / r
    out *= gd

    def backward(g):
        if rx is not None:
            gy = g * gd
            rx.accum(gy / r)
            g_r = (-gy * xd / (r * r)).sum(axis=1, keepdims=True)
            g_sq = (np.broadcast_to(g_r * 0.5 / r, xd.shape) / xd.shape[1]).astype(np.float32)
            g_sq *= xd
            rx.accum(g_sq)
            rx.accum(g_sq)
        if rg is not None:
            rg.accum(_unbroadcast(g * (xd / r), rg.shape))

    return Tensor._from_op(out, (x, gain), backward)


# Byte boundary of the rope tables and the KV cache's buffers.  NumPy's vector
# loops run fast only on aligned rows, and a large allocation usually starts
# 16 bytes past one: multiplying (896, 128) float32 arrays took 22 us aligned
# and 46-49 us at 16 or 32 bytes off (2-vCPU Xeon VM).
ALIGN = 64


def aligned_empty(shape: tuple, dtype=np.float32, count: int = 1) -> np.ndarray:
    """count C-ordered arrays as one (count, *shape) array, from one
    allocation: each [i] starts on an ALIGN-byte boundary, and so does each
    of its rows whose byte width is a multiple of ALIGN.  The memory is not
    initialized: every caller writes an element before it reads it."""
    size = math.prod(shape) * np.dtype(dtype).itemsize
    step = -(-size // ALIGN) * ALIGN
    raw = np.empty(count * step + ALIGN, dtype=np.uint8)
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
        cos, sin = aligned_empty((n, width), count=2)
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
    # stacked sequences are a (B, T, width) view that the table rows broadcast over
    view = (rows // t, t, width) if rows > t else (rows, width)

    def rotate(a: np.ndarray, transpose: bool = False, out=None) -> np.ndarray:
        # the swapped halves are one copy of a view with the half axis
        # reversed, taken before out is written, so out may be a
        swapped = np.ascontiguousarray(a.reshape(rows, width // d, 2, d // 2)[:, :, ::-1])
        swapped = swapped.reshape(view)
        swapped *= sin
        r = np.multiply(a.reshape(view), cos, out=None if out is None else out.reshape(view))
        if transpose:  # the transpose rotates by -angle: x * cos - swapped * sin
            r -= swapped
        else:
            r += swapped
        return r.reshape(rows, width) if out is None else out

    if not tape:
        return rotate(x, out=out)

    rx = x.record

    def backward(g):  # reads no value: the input dies once rotated
        rx.accum(rotate(g, transpose=True))

    return Tensor._from_op(rotate(x.data), (x,), backward)


def _product(xd: np.ndarray, wd: np.ndarray, bd: np.ndarray) -> np.ndarray:
    """xd @ wd + bd of a tape op's arrays, after checking their shapes."""
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0] or bd.shape != (1, wd.shape[1]):
        raise DimensionError(f"linear shape mismatch: {xd.shape} x {wd.shape} + {bd.shape}")
    out = xd @ wd
    out += bd
    return out


def linear(x, w, b):
    """x @ w + b of a (rows, C) Tensor or array, a (C, N) weight and a (1, N)
    bias row.  On Tensors it is one tape op, whose backward gives g @ w^T,
    x^T @ g and the column sums of g; on arrays the bias is added in place.
    A shape mismatch raises DimensionError (on arrays, one that numpy cannot
    broadcast: the runtime path checks nothing before its product)."""
    if not isinstance(x, Tensor):
        try:
            out = x @ w
            out += b
        except ValueError as e:
            raise DimensionError(f"linear shape mismatch: {e}") from None
        return out
    w, b = x._coerce(w), x._coerce(b)
    rx, rw, rb = x.record, w.record, b.record
    out = _product(x.data, w.data, b.data)
    # x's gradient reads only the weight, the weight's only the input
    wd = w.data if rx is not None else None
    xd = x.data if rw is not None else None

    def backward(g):
        if rx is not None:
            rx.accum(g @ wd.T)
        if rw is not None:
            rw.accum(xd.T @ g)
        if rb is not None:
            rb.accum(_unbroadcast(g, rb.shape))

    return Tensor._from_op(out, (x, w, b), backward)


def _sigmoid(g: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-g)) in float32, with one temporary."""
    s = np.negative(g)
    np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def gated_mlp(x, wg, bg, wu, bu, wd, bd, act_fn=None):
    """The gated MLP (silu(x @ wg + bg) * (x @ wu + bu)) @ wd + bd of a
    (rows, C) Tensor or array, with (C, I) gate and up weights, a (I, C)
    down weight and bias rows.

    On Tensors it is one tape op that keeps the gate and up projections g
    and u (and x when wg or wu needs a gradient), not the product or the
    activations: its backward recomputes sigmoid(g), silu(g) = g *
    sigmoid(g) and silu(g) * u, and then runs, in float32, the backward of
    the linear -> silu -> mul -> linear chain it replaces, in that chain's
    order.  The product is formed only when wd needs a gradient.
    test_gated_mlp_matches_elementwise_chain checks the forward and every
    gradient bit for bit against that chain.

    On arrays silu(g) and its product with u are formed in g's buffer, and
    act_fn (weight_activation's per-token activation quantizer), if given,
    is applied to the product before the down projection; the tape takes
    no act_fn."""
    if not isinstance(x, Tensor):
        g = linear(x, wg, bg)
        s = _sigmoid(g)
        g *= s
        del s
        g *= linear(x, wu, bu)
        return linear(g if act_fn is None else act_fn(g), wd, bd)
    if act_fn is not None:
        raise UsageError("gated_mlp applies act_fn on arrays only")
    wg, bg, wu, bu, wd, bd = (x._coerce(a) for a in (wg, bg, wu, bu, wd, bd))
    rx, rg, rbg, ru, rbu, rd, rbd = (t.record for t in (x, wg, bg, wu, bu, wd, bd))
    g = _product(x.data, wg.data, bg.data)
    u = _product(x.data, wu.data, bu.data)
    mid = _sigmoid(g)
    mid *= g
    mid *= u
    out = _product(mid, wd.data, bd.data)
    del mid
    # what the gradients read besides g and u: x's the gate and up weights,
    # theirs the input, and every one below the product the down weight
    inner = any(r is not None for r in (rx, rg, rbg, ru, rbu))
    xd = x.data if rg is not None or ru is not None else None
    wgd, wud = (wg.data, wu.data) if rx is not None else (None, None)
    wdd = wd.data if inner else None

    def backward(go):
        s = _sigmoid(g)
        a = g * s  # silu(g)
        if rd is not None:
            rd.accum((a * u).T @ go)
        if rbd is not None:
            rbd.accum(_unbroadcast(go, rbd.shape))
        if not inner:
            return
        gm = go @ wdd.T
        gu = np.multiply(gm, a, out=a)  # mul's gradient to u
        gm *= u  # and to silu(g)
        d = 1.0 - s  # silu's derivative, s * (1 + g * (1 - s))
        d *= g
        d += 1.0
        d *= s
        del s
        gm *= d  # the gradient to g
        del d
        if rx is not None:
            rx.accum(gm @ wgd.T)
            rx.accum(gu @ wud.T)
        for rw, rb, gr in ((rg, rbg, gm), (ru, rbu, gu)):
            if rw is not None:
                rw.accum(xd.T @ gr)
            if rb is not None:
                rb.accum(_unbroadcast(gr, rb.shape))

    return Tensor._from_op(out, (x, wg, bg, wu, bu, wd, bd), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer targets under row-wise softmax."""
    _check_finite("cross_entropy", logits.data)
    t = logits.shape[0]
    # the shifted logits, their exponentials and the probabilities share one
    # buffer, so a call holds one (rows, vocab) array beside the logits
    p = logits.data - logits.data.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    nll = -np.log(np.maximum(p[np.arange(t), targets], 1e-30))
    out_data = np.asarray(nll.mean(), dtype=np.float32)
    ra = logits.record

    def backward(g):  # reads p, not the logits
        d = p.copy()
        d[np.arange(t), targets] -= 1.0
        ra.accum(g * d / t)

    return Tensor._from_op(out_data, (logits,), backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather from an embedding table; backward scatter-adds."""
    ids = np.asarray(ids, dtype=np.int64)
    out_data = table.data[ids]
    ra = table.record

    def backward(g):
        full = np.zeros(ra.shape, dtype=np.float32)
        np.add.at(full, ids, g)
        ra.accum(full)

    return Tensor._from_op(out_data, (table,), backward)
