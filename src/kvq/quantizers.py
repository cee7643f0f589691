"""Quantization math: channel smoothing with absorption, dynamic per-token
shifted-symmetric group quantization, and round-to-nearest group-wise weight
quantization.

There is one core per quantizer kind.  quantize_token and quantize_weight
turn an array into integer codes plus per-group affine parameters, and
dequantize maps them back; each works on a 3-d view of all full groups at
once, with a short tail group as one separate slice.  The token core
(_quantize_token_groups) returns its codes as integral float32; token_codes
runs it over row blocks and spans and gives each caller what it asks for:
the codes cast on assignment into an int8 array, with m and n (keep), or the
round trip as floats, the codes times n plus m written into out, or both.
The KV cache stores token codes one per byte.  Weight codes are held
(model.Linear) and stored (checkpoint) as one bit stream at their width,
pack_codes, and unpacked (unpack_codes) only where their dequantization is
formed.

Token groups are per row, so the token core takes a chunk ROW_BLOCK rows at
a time (row_blocks), and its temporaries scale with the block, not with the
chunk.  quantize_token, every round trip (the runtime's POQ-off keys and
values, cache-path scoring's past keys and values, weight_activation's
activation quantizer and fake_quant_token) and both writes of the cache, the
append, which stores each block's codes as they are made, and the decode
step's, all run it through token_codes.  A round trip makes no int8 array or
QuantizedTensor for rows that are never stored.  Every row gets the codes, m
and n it gets alone, and the whole chunk is checked for non-finite values
before its first block; a chunk of at most ROW_BLOCK rows is one block,
stacked and checked at once.

fake_quant_token and fake_quant_weight are the two round trips as plain
array functions, dequantize(quantize_...(...)) bit for bit: the deployed
rounding as floats.  Calibration scores its candidates through the runtime's
POQ-off K/V round trip, and rounds each weight once with fake_quant_weight
before the K/V smoothing scale divides it: weight groups run along input
channels and smoothing scales output channels, so w / s has the codes and
zero-points of w.

Token codes are signed and live in [-2^(N-1), 2^(N-1)-1]; weight codes are
unsigned in [0, 2^N - 1].  A group whose spread is below SPREAD_EPS is
constant: it gets a unit step and zero codes, and dequantizes to its mean
(token) or minimum (weight).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateScaleError, DimensionError, KvqError, NumericError
from .tensor import _check_finite, round_half_away

S_FLOOR = 1e-6
# the floor of init_smoothing's scales, above S_FLOOR
INIT_S_FLOOR = 1e-5
SPREAD_EPS = 1e-12


def _is_int(v) -> bool:
    """An integer of any integral type, Python's or numpy's, but not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def check_seed(seed):
    """seed, or KvqError unless it is an integer >= 0 (_is_int), which
    numpy's generators take: the one rule of every seeded entry point."""
    if not _is_int(seed) or seed < 0:
        raise KvqError(f"seed must be an integer >= 0, got {seed!r}")
    return seed


def check_bits(name: str, bits) -> None:
    """KvqError unless bits is an integer code width, 2..8 (token codes are
    int8 and weight codes uint8), or 16, which means unquantized: the one
    rule of the widths ModelConfig and the analyzer's DeployConfig take."""
    if not _is_int(bits) or not (2 <= bits <= 8 or bits == 16):
        raise KvqError(f"{name} must be 2..8 or 16, got {bits!r}")


# -- parameter containers -----------------------------------------------------


@dataclass
class SmoothingParams:
    """Per-output-channel scale s and shift delta for KV smoothing."""

    s: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=np.float32).reshape(-1)
        self.delta = np.asarray(self.delta, dtype=np.float32).reshape(-1)
        if self.s.shape != self.delta.shape:
            raise DimensionError(
                f"smoothing s/delta length mismatch: {self.s.shape} vs {self.delta.shape}"
            )

    def check_scale(self) -> None:
        if np.min(self.s) < S_FLOOR:
            raise DegenerateScaleError(
                f"smoothing scale below {S_FLOOR}: min s = {np.min(self.s)}"
            )

    @staticmethod
    def identity(channels: int) -> "SmoothingParams":
        return SmoothingParams(np.ones(channels), np.zeros(channels))

    def is_identity(self) -> bool:
        return bool(np.all(self.s == 1.0) and np.all(self.delta == 0.0))


@dataclass
class TokenQuantSpec:
    """Dynamic per-token group quantization; (m, n) computed at run time."""

    bits: int = 4
    group_size: int = 128

    @property
    def code_lo(self) -> int:
        return -(2 ** (self.bits - 1))

    @property
    def code_hi(self) -> int:
        return 2 ** (self.bits - 1) - 1


@dataclass
class WeightQuantSpec:
    """Group-wise asymmetric round-to-nearest weight quantization."""

    bits: int = 4
    group_size: int = 128

    @property
    def code_hi(self) -> int:
        return 2**self.bits - 1


@dataclass
class QuantizedTensor:
    """Integer codes plus per-group affine parameters.

    kind == "token": params are m, n with shape (..., T, n_groups), over
    (..., T, C) codes; dequant is codes * n + m.  kind == "weight": params
    are h, z with shape (n_groups, C_out); dequant is (codes - z) * h.  dequantize takes codes
    of the array's shape; a Linear's wq holds them as pack_codes' stream.
    """

    kind: str
    codes: np.ndarray
    bits: int
    group_size: int
    m: np.ndarray | None = None
    n: np.ndarray | None = None
    h: np.ndarray | None = None
    z: np.ndarray | None = None


# -- smoothing ----------------------------------------------------------------


def absorb_smoothing(
    w: np.ndarray, b: np.ndarray, sp: SmoothingParams
) -> tuple[np.ndarray, np.ndarray]:
    """Fold s and delta into the producing projection: W~ = W / s, B~ = (B - delta) / s.
    Only Linear.absorb folds a projection's smoothing, and only once."""
    sp.check_scale()
    w = np.asarray(w, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32).reshape(1, -1)
    if w.shape[1] != sp.s.shape[0] or b.shape[1] != sp.s.shape[0]:
        raise DimensionError(
            f"smoothing length {sp.s.shape[0]} does not match projection width {w.shape[1]}"
        )
    w_t = w / sp.s[None, :]
    b_t = (b - sp.delta[None, :]) / sp.s[None, :]
    return w_t.astype(np.float32), b_t.astype(np.float32)


def apply_kv_smoothing(x: np.ndarray, sp: SmoothingParams,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Map smoothed KV back to raw space, Y~ * s + delta (after dequantizing
    cached KV), into out when given (out may be x itself).  Smoothing is
    only ever absorbed into a projection (absorb_smoothing), so nothing maps
    the other way."""
    x = np.asarray(x, dtype=np.float32)
    out = np.multiply(x, sp.s[None, :], out=out)
    out += sp.delta[None, :]
    return out


def init_smoothing(samples: np.ndarray) -> SmoothingParams:
    """Initialize from calibration activations (rows = tokens, cols = channels).

    delta is the per-channel mean; s maps each channel's max absolute
    deviation to unit range, floored at INIT_S_FLOOR to keep the scale
    invertible.
    """
    samples = np.asarray(samples, dtype=np.float32)
    delta = samples.mean(axis=0)
    s = np.abs(samples - delta[None, :]).max(axis=0)
    s = np.maximum(s, INIT_S_FLOOR)
    return SmoothingParams(s, delta)


# -- one core per kind: integer codes and their round trip as floats ---------


def _spans(n: int, group_size: int) -> list[tuple[slice, slice, int, int]]:
    """(channel slice, group slice, groups, group size) of each span of n channels.

    All full groups form one span, and a short tail group a second one.
    """
    if group_size < 1:
        raise KvqError(f"group_size must be positive, got {group_size}")
    k = n // group_size
    spans = [(slice(0, k * group_size), slice(0, k), k, group_size)] if k else []
    if k * group_size < n:
        spans.append((slice(k * group_size, n), slice(k, k + 1), 1, n - k * group_size))
    return spans


def _cat(arrays, axis: int) -> np.ndarray:
    """Join arrays along axis (no copy for a single one)."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=axis)


def _quantize_token_groups(y: np.ndarray, spec: TokenQuantSpec):
    """(T, groups, size) codes and (T, groups) m, n of a (T, groups, size)
    array.  The codes are integral float32: a caller that stores them casts
    them on assignment into its int8 array, and the round trip takes them
    as they are (token_codes).

    Codes round half away from zero in fewer passes than round_half_away:
    x + copysign(0.5, x) is sign(x) * (|x| + 0.5) exactly, and clipped to the
    code range and truncated, as an int8 cast truncates, it is the code.  A
    truncated code in (-1, 0) is -0.0, whose product with n adds to m as +0.0
    does (m is -0.0 only where a group is all -0.0, a constant one).  The groups'
    largest |deviation| is taken over a C-ordered (size, T * groups) copy,
    whose maximum runs along whole rows instead of along each short group:
    2.5-3.4x faster at 128 and 1,792 rows, 1.3 us slower at 2 (2-vCPU Xeon
    VM, kv_group_size 32)."""
    t, k, size = y.shape
    half = float(2 ** (spec.bits - 1))
    m = np.add.reduce(y, axis=2) / size  # mean(axis=2), without its wrapper's cost
    centered = y - m[:, :, None]
    dev = np.abs(centered.reshape(t * k, size).T, order="C")
    spread = np.maximum.reduce(dev, axis=0).reshape(t, k)
    flat = spread < SPREAD_EPS
    n = spread / half
    any_flat = flat.any()
    if any_flat:
        n[flat] = 1.0
    centered /= n[:, :, None]
    q = np.copysign(0.5, centered)
    q += centered
    np.maximum(q, spec.code_lo, out=q)  # np.clip, without its wrapper's cost
    np.minimum(q, spec.code_hi, out=q)
    np.trunc(q, out=q)
    if any_flat:
        q[flat] = 0.0
    return q, m, n


# Rows per block of a token quantization.  Each block's temporaries (its
# centred rows, their transposed |deviation| copy and the rounding buffer)
# scale with it, not with the chunk, so an 896-token prefill's K/V append
# holds 0.13 MB of each instead of 0.92 MB.  Token groups are per row, so
# every row gets the codes, m and n a one-block call gives it.
ROW_BLOCK = 128


def row_blocks(parts, name: str):
    """The rows of the equal-length (T, C) float32 arrays parts, ROW_BLOCK
    rows of each at a time: (rows, y) per block, y the block's rows of every
    part stacked in parts' order.

    Non-finite input raises NumericError (naming name) before the first
    block is given, so a caller that stores each block as it comes stores
    nothing.  A chunk of one block is its parts stacked whole and checked
    once.  One-row calls are the common case: a decode step's round trips
    (POQ off, weight_activation's activations) and its append onto a cache
    that does not fold.  A one-row quantize_token at hidden 128 took 23 us
    so and 26 us through the general path's per-part checks and generator
    (2-vCPU Xeon VM, one BLAS thread)."""
    t = len(parts[0])
    if t <= ROW_BLOCK:
        y = _cat(parts, 0)
        _check_finite(name, y)
        return ((slice(0, t), y),)
    for part in parts:
        _check_finite(name, part)
    rows = (slice(a, min(a + ROW_BLOCK, t)) for a in range(0, t, ROW_BLOCK))
    return ((r, _cat([p[r] for p in parts], 0)) for r in rows)


def token_codes(parts, spec: TokenQuantSpec, name: str = "quantize_token", keep=None,
                out: np.ndarray | None = None) -> np.ndarray | None:
    """Quantize each of the equal-length (T, C) float32 parts per token
    group: ROW_BLOCK rows of every part at a time (row_blocks, which checks
    them and names name in its NumericError), one core call per block and
    span.  The parts lie along the leading axes of the outputs, in order.

    keep, a (codes, params) pair shaped (..., T, C) and (2, ..., T, groups),
    receives each part's codes, cast on assignment, and its [m; n].  out,
    shaped as codes and float32, receives the round trip: the integral
    float codes times n, written into out, plus m added there in place,
    dequantize's own arithmetic, so it is dequantize(quantize_token(part))
    bit for bit with no int8 array.  Either may be a strided view (of a
    cache's store, say): out's span, its last axis split into groups, is
    always a view of it.  Returns out."""
    spans = _spans(parts[0].shape[1], spec.group_size)
    for rows, y in row_blocks(parts, name):
        for cols, groups, k, size in spans:
            q, m, n = _quantize_token_groups(y[:, cols].reshape(len(y), k, size), spec)
            if keep is not None:
                lead = keep[0].shape[:-2]
                keep[0][..., rows, cols] = q.reshape(*lead, -1, k * size)
                keep[1][0][..., rows, groups] = m.reshape(*lead, -1, k)
                keep[1][1][..., rows, groups] = n.reshape(*lead, -1, k)
            if out is not None:
                dst = out[..., rows, cols].reshape(*out.shape[:-2], -1, k, size)
                np.multiply(q.reshape(dst.shape), n.reshape(*dst.shape[:-1], 1), out=dst)
                dst += m.reshape(*dst.shape[:-1], 1)
            del q, m, n  # before the next span is quantized
    return out


def quantize_token(y: np.ndarray, spec: TokenQuantSpec) -> QuantizedTensor:
    """Per-token, per-group shifted-symmetric quantization (token_codes).

    The full groups are quantized at once as a (rows, groups, group_size)
    view, ROW_BLOCK rows at a time (row_blocks); a short tail group is a
    separate slice with its own statistics.
    """
    y = np.asarray(y, dtype=np.float32)
    codes = np.empty(y.shape, dtype=np.int8)
    mn = np.empty((2, len(y), -(-y.shape[1] // spec.group_size)), dtype=np.float32)
    token_codes((y,), spec, keep=(codes, mn))
    return QuantizedTensor("token", codes, spec.bits, spec.group_size, m=mn[0], n=mn[1])


def _quantize_weight_groups(w: np.ndarray, spec: WeightQuantSpec):
    """(groups * size, C) codes and (groups, C) h, z of a (groups, size, C) array."""
    k, size, c = w.shape
    top, bot = w.max(axis=1), w.min(axis=1)
    flat = (top - bot) < SPREAD_EPS
    h = np.where(flat, 1.0, (top - bot) / spec.code_hi).astype(np.float32)
    # constant group: unit step, zero codes, and an exact (unrounded)
    # zero-point so dequantization reproduces the constant losslessly
    z = np.where(flat, -bot, -round_half_away(bot / h)).astype(np.float32)
    q = round_half_away(w / h[:, None, :]) + z[:, None, :]
    np.clip(q, 0, spec.code_hi, out=q)
    if flat.any():  # a mask pass over every code only where a group is constant
        q[np.broadcast_to(flat[:, None, :], q.shape)] = 0.0
    return q.astype(np.uint8).reshape(k * size, c), h, z


def quantize_weight(w: np.ndarray, spec: WeightQuantSpec) -> QuantizedTensor:
    """Group-wise (input-channel axis) asymmetric round-to-nearest quantization.

    The full groups are quantized at once as a (groups, group_size, C_out)
    view; a short tail group is a separate slice with its own statistics.
    """
    w = np.asarray(w, dtype=np.float32)
    if not np.all(np.isfinite(w)):
        raise NumericError("quantize_weight: non-finite input")
    r, c = w.shape
    parts = [
        _quantize_weight_groups(w[rows].reshape(k, size, c), spec)
        for rows, _, k, size in _spans(r, spec.group_size)
    ]
    codes, h, z = (_cat(arrays, 0) for arrays in zip(*parts))
    return QuantizedTensor(
        kind="weight", codes=codes, bits=spec.bits, group_size=spec.group_size, h=h, z=z
    )


def dequantize(q: QuantizedTensor, out: np.ndarray | None = None) -> np.ndarray:
    """codes * n + m (token) or (codes - z) * h (weight), span by span, into
    out (a float32 array of the codes' shape) when given.  Token codes may
    carry leading axes, (..., T, C) with (..., T, groups) m and n, so a
    cache reads its stacked K and V in one call."""
    if q.kind not in ("token", "weight"):
        raise KvqError(f"unknown QuantizedTensor kind: {q.kind!r}")
    c = q.codes.shape[-1]
    if out is None:
        out = np.empty(q.codes.shape, dtype=np.float32)
    if q.kind == "token":
        # n and m repeated to channel width: broadcasting them over (rows,
        # groups, size) runs an inner loop of only size elements.  Each
        # (T, C) slab is its own pass, so its repeated n and m stay in L2: a
        # cache's K and V of 900 rows as one pass took 1.2x the time
        spans = _spans(c, q.group_size)
        for i in np.ndindex(q.codes.shape[:-2]):
            for cols, gs, k, size in spans:
                part = out[i][:, cols]
                part[...] = q.codes[i][:, cols]
                part *= np.repeat(q.n[i][:, gs], size, axis=1)
                part += np.repeat(q.m[i][:, gs], size, axis=1)
        return out
    for rows, gs, k, size in _spans(len(q.codes), q.group_size):
        part = out[rows].reshape(k, size, c)
        part[...] = q.codes[rows].reshape(k, size, c)
        part -= q.z[gs, None, :]
        part *= q.h[gs, None, :]
    return out


# -- packed weight codes ------------------------------------------------------


def _lanes(width: int, keep: int) -> np.uint64:
    """A uint64 mask of the low keep bits of every width-bit lane."""
    return np.uint64(sum(((1 << keep) - 1) << at for at in range(0, 64, width)))


# (lane width, codes each half of a lane holds): 8 codes, one per byte of a
# 64-bit word, join pairwise into lanes of 2, 4 and then 8 codes
_STAGES = [(16, 1), (32, 2), (64, 4)]


def packed_size(numel: int, bits: int) -> int:
    """Bytes of the stream of numel codes of the given width."""
    return -(-numel // 8) * bits


def pack_codes(codes: np.ndarray, bits: int) -> np.ndarray:
    """The little-endian bit stream of a uint8 code array (row-major), as
    packed_size bytes; every code must fit in bits.

    Each 8 codes are read as one little-endian 64-bit word, a code per byte.
    Each stage moves the upper half of every lane down onto the codes the
    lower half holds, so the word ends with its 8 codes in its low 8 * bits
    bits, which are its first bits bytes."""
    flat = np.ascontiguousarray(codes, dtype=np.uint8).reshape(-1)
    if flat.size and flat.max() >> bits:
        raise KvqError(f"a code of {flat.max()} does not fit in {bits} bits")
    groups = -(-flat.size // 8)
    if flat.size % 8:
        flat = np.concatenate([flat, np.zeros(8 * groups - flat.size, np.uint8)])
    x = flat.view("<u8").astype(np.uint64)
    for width, held in _STAGES:
        low = _lanes(width, width // 2)
        x = (x & low) | ((x & ~low) >> np.uint64(width // 2 - held * bits))
    return x.astype("<u8", copy=False).view(np.uint8).reshape(groups, 8)[:, :bits].reshape(-1)


def unpack_codes(stream: np.ndarray, bits: int, shape: tuple[int, ...]) -> np.ndarray:
    """The uint8 codes of the given shape that pack_codes(codes, bits) made
    the stream of: its stages run backwards, splitting each lane's codes
    into its two halves."""
    numel, groups = math.prod(shape), len(stream) // bits
    words = np.zeros((groups, 8), np.uint8)
    words[:, :bits] = stream.reshape(groups, bits)
    x = words.view("<u8").reshape(groups).astype(np.uint64)
    for width, held in reversed(_STAGES):
        keep = _lanes(width, held * bits)
        x = (x & keep) | ((x >> np.uint64(held * bits)) & keep) << np.uint64(width // 2)
    return x.astype("<u8", copy=False).view(np.uint8)[:numel].reshape(shape)


def fake_quant_token(y: np.ndarray, bits: int, group_size: int) -> np.ndarray:
    """dequantize(quantize_token(y)): a cache's round trip of y as floats
    (token_codes' out)."""
    y = np.asarray(y, dtype=np.float32)
    return token_codes((y,), TokenQuantSpec(bits, group_size), out=np.empty_like(y))


def fake_quant_weight(w: np.ndarray, bits: int, group_size: int) -> np.ndarray:
    """dequantize(quantize_weight(w)): the deployed rounding of w as floats."""
    return dequantize(quantize_weight(w, WeightQuantSpec(bits, group_size)))
