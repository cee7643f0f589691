"""Dense float32 array kernels of the decoder, and the backward functions
that training runs in reverse.

Rounding uses half-away-from-zero ties everywhere (see round_half_away).

The transformer primitives work on all heads at once.  rope rotates a
(T, n_heads * head_dim) array in one call, slicing cos/sin from a float32
table that repeats each head's angles across the width, is computed in
float64 once per (base, head_dim, width) and is grown on demand.
exp_causal and softmax_causal are in-place kernels on a (..., T, S)
array, so a caller can turn its (heads, T, S) scores buffer into masked
exponentials (and their row sums) or into probabilities without a copy.

Equal-length sequences can be stacked as rows, (B*T, C): rms_norm, linear
and gated_mlp work row by row, and rope takes B from the row count and the
T positions and broadcasts the T table rows over a (B, T, C)
view.  linear is a projection x @ w + b with a (1, N) bias row, the bias
added in place; gated_mlp is the block's whole MLP, (silu(x @ wg + bg) *
(x @ wu + bu)) @ wd + bd.

Training differentiates the language-model loss by hand
(evaluate.lm_grads): its forward keeps, per op, only the arrays that the
op's backward function reads, and a reverse loop then calls one backward
function per op.  As Chen et al. (arXiv 1604.06174) put it, a backward
needs a value only where a gradient it forms reads it, and what is cheap
to recompute need not be kept.  So a block keeps:
  * rms_norm: its input and the (rows, 1) root mean squares r (keep_r),
    not the normalized rows x / r, which the gain's gradient recomputes;
  * linear: its input, which the weight's gradient reads (the weight is
    the model's own array);
  * rope: nothing, since its backward rotates the gradient back by the same
    table rows (transpose), so a pre-rotation q or k dies once rotated;
  * gated_mlp: the gate and up projections g and u (keep), not silu(g) or
    the product, which gated_mlp_backward recomputes from g and u;
  * attention (model.softmax_attention): the rotated q and k, v and the
    probabilities.
The outputs of the o and down projections, which feed residual adds, die
as soon as the add has run.

A backward function returns fresh arrays and writes into no array it is
given, so one gradient may go to two consumers (a residual add passes its
gradient to both operands).  Where a value has several consumers, their
gradients are summed in one fixed order, on which the fit's float32 bits
depend (test_losses_and_weights_pinned): the residual's first, then
rms_norm's three terms (rms_norm_backward), and into the input that the q,
k and v projections share, q's, then k's, then v's.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, NumericError, UsageError


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer, ties away from zero (deterministic across platforms)."""
    r = np.abs(x)
    r += 0.5
    np.floor(r, out=r)
    np.copysign(r, x, out=r)
    return r.astype(np.float32, copy=False)


class Tensor:
    """The runtime's logits, a float32 array held as .data: the benchmark's
    bench.py reads .data on what prefill and decode_step return."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        self.data = data

    # the benchmark's tracer (perfbench/tracing.py) wraps Tensor.backward on this class
    def backward(self) -> None:
        """Logits carry no gradient: this refuses."""
        raise UsageError("logits have no gradient: training differentiates through "
                         "evaluate.lm_grads")


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
    now holding the probabilities.  Training's attention runs it
    (model.softmax_attention), since its backward reads the probabilities;
    the runtime forward normalizes after P . V instead."""
    scores /= exp_causal(scores, offset)
    return scores


# rms_norm's epsilon, and model._row_rms_norm's
RMS_EPS = np.float32(1e-6)


def rms_norm(x: np.ndarray, gain: np.ndarray, keep_r: bool = False):
    """RMS normalization over the channel axis with a gain row, x /
    sqrt(mean(x * x) + RMS_EPS) * gain, whose float32 operations and order
    are those of the chain that rms_norm_backward differentiates.  The x * x
    buffer takes the quotient x / r, then its product with the gain, so a
    call allocates one (rows, C) array.  keep_r also returns r, the (rows,
    1) root mean squares, which the backward reads."""
    _check_finite("rms_norm", x)
    sq = x * x
    # the sum and division of mean(axis=1), without its wrapper's cost
    ms = np.add.reduce(sq, axis=1, keepdims=True) / x.shape[1]
    r = np.sqrt(ms + RMS_EPS)
    out = np.divide(x, r, out=sq)
    out *= gain
    return (out, r) if keep_r else out


def rms_norm_backward(g: np.ndarray, x: np.ndarray, gain: np.ndarray, r: np.ndarray,
                      residual: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The gradients of rms_norm(x, gain) to x and to the gain, given g and
    the r it kept.  x's is the backward of the chain x / r * gain op by op
    in float32: g * gain / r, then the mean-square path's term twice (once
    per x of x * x), added in that order to residual, the gradient x takes
    from its other consumer, when there is one.  The gain's recomputes x /
    r.  test_rms_norm_matches_elementwise_chain checks both bit for bit."""
    gy = g * gain
    gx = gy / r if residual is None else residual + gy / r
    g_r = (-gy * x / (r * r)).sum(axis=1, keepdims=True)
    g_sq = g_r * 0.5 / r / x.shape[1] * x
    gx += g_sq
    gx += g_sq
    return gx, (g * (x / r)).sum(axis=0, keepdims=True)


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


def rope(x: np.ndarray, positions: np.ndarray, base: float = 10000.0,
         head_dim: int | None = None, out: np.ndarray | None = None,
         transpose: bool = False) -> np.ndarray:
    """Rotary position embedding of a (B*T, n_heads * head_dim) array.

    x stacks B equal-length sequences as rows, each at the T positions given,
    so a row count that is not a multiple of T raises DimensionError; every
    row of a sequence takes its position's table row.
    Every head is rotated in the rotate-half layout, [x1, x2] ->
    [x1 cos - x2 sin, x2 cos + x1 sin]; head_dim defaults to the full width
    (one head).  positions must be a contiguous ascending range, so cos/sin
    are a slice of rope_table.  transpose rotates by -angle, x * cos -
    swapped * sin: the backward, which takes a gradient back through the
    rotation.  The result is written to out when given (out may be x
    itself).
    """
    _check_finite("rope", x)
    rows, width = x.shape
    d = width if head_dim is None else head_dim
    if d % 2 != 0 or width % d != 0:
        raise DimensionError(f"rope requires an even head_dim dividing {width}, got {d}")
    positions = np.asarray(positions)
    t = positions.shape[0] if positions.ndim == 1 else 0
    start = int(positions[0]) if t else 0
    if (positions.ndim != 1 or start < 0 or (t > 1 and np.any(np.diff(positions) != 1))
            or (rows % t if t else rows)):
        raise DimensionError(f"rope positions must be a contiguous range from >= 0, one per "
                             f"row of each sequence: got {rows} rows, positions {positions.shape}")
    cos, sin = rope_table(base, d, width, start + t)
    cos, sin = cos[start : start + t], sin[start : start + t]
    # stacked sequences are a (B, T, width) view that the table rows broadcast over
    view = (rows // t, t, width) if rows > t else (rows, width)
    # the swapped halves are one copy of a view with the half axis reversed,
    # taken before out is written, so out may be x
    swapped = np.ascontiguousarray(x.reshape(rows, width // d, 2, d // 2)[:, :, ::-1])
    swapped = swapped.reshape(view)
    swapped *= sin
    r = np.multiply(x.reshape(view), cos, out=None if out is None else out.reshape(view))
    if transpose:
        r -= swapped
    else:
        r += swapped
    return r.reshape(rows, width) if out is None else out


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b of a (rows, C) array, a (C, N) weight and a (1, N) bias
    row, the bias added in place.  Shapes numpy cannot multiply or
    broadcast raise DimensionError naming all three (nothing is checked
    before the product)."""
    try:
        out = x @ w
        out += b
    except ValueError:
        raise DimensionError(f"linear shape mismatch: {np.shape(x)} x {np.shape(w)} + "
                             f"{np.shape(b)}") from None
    return out


def linear_backward(g: np.ndarray, x: np.ndarray, w: np.ndarray):
    """The gradients of linear(x, w, b) to x, w and b: g @ w^T, x^T @ g and
    the column sums of g."""
    return g @ w.T, x.T @ g, g.sum(axis=0, keepdims=True)


def _sigmoid(g: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-g)) in float32, with one temporary."""
    s = np.negative(g)
    np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def gated_mlp(x, wg, bg, wu, bu, wd, bd, act_fn=None, keep: list | None = None):
    """The gated MLP (silu(x @ wg + bg) * (x @ wu + bu)) @ wd + bd of a
    (rows, C) array, with (C, I) gate and up weights, a (I, C) down weight
    and bias rows.

    silu(g) and its product with u are formed in sigmoid(g)'s buffer, and
    g and u are freed as soon as they are read, unless keep, a list,
    receives them (training's forward: gated_mlp_backward reads them).
    act_fn (weight_activation's per-token activation quantizer), if given,
    is applied to the product before the down projection."""
    g = linear(x, wg, bg)
    a = _sigmoid(g)
    a *= g  # silu(g)
    if keep is not None:
        keep.append(g)
    del g
    u = linear(x, wu, bu)
    a *= u
    if keep is not None:
        keep.append(u)
    del u
    return linear(a if act_fn is None else act_fn(a), wd, bd)


def gated_mlp_backward(go: np.ndarray, x: np.ndarray, g: np.ndarray, u: np.ndarray,
                       wg: np.ndarray, wu: np.ndarray, wd: np.ndarray) -> tuple:
    """The gradients of gated_mlp's output to x, wg, bg, wu, bu, wd and bd,
    given go and the g and u it kept.  It recomputes sigmoid(g), silu(g) =
    g * sigmoid(g) and silu(g) * u, and runs, in float32, the backward of
    the linear -> silu -> mul -> linear chain, in that chain's order: x's
    gradient is the gate's term plus the up projection's.
    test_gated_mlp_matches_elementwise_chain checks every gradient bit for
    bit against that chain."""
    s = _sigmoid(g)
    a = g * s  # silu(g)
    g_wd = (a * u).T @ go
    gm = go @ wd.T
    gu = np.multiply(gm, a, out=a)  # mul's gradient to u
    gm *= u  # and to silu(g)
    d = 1.0 - s  # silu's derivative, s * (1 + g * (1 - s))
    d *= g
    d += 1.0
    d *= s
    del s
    gm *= d  # the gradient to g
    del d
    return (gm @ wg.T + gu @ wu.T, x.T @ gm, gm.sum(axis=0, keepdims=True), x.T @ gu,
            gu.sum(axis=0, keepdims=True), g_wd, go.sum(axis=0, keepdims=True))
