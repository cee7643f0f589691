"""Quantization math: channel smoothing with absorption, dynamic per-token
shifted-symmetric group quantization, and round-to-nearest group-wise weight
quantization.

There is one core per quantizer kind.  quantize_token and quantize_weight
turn an array into integer codes plus per-group affine parameters, and
dequantize maps them back; each works on a 3-d view of all full groups at
once, with a short tail group as one separate slice.  The KV cache and the
checkpoints store the codes.  Calibration trains through the same core:

* token path: fake_quant_token is one autodiff op whose forward is
  dequantize(quantize_token(...)) and whose backward holds the codes fixed,
  so the gradient is the exact local derivative q * dn + dm through the
  group mean m and half-range n;
* weight path: fake_quant_weight is the plain array function
  dequantize(quantize_weight(...)).  Weight groups run along input channels
  and K/V smoothing scales output channels, so w / s has the codes and
  zero-points of w: calibration quantizes each weight once and divides the
  result by s on the tape.

Token codes are signed and live in [-2^(N-1), 2^(N-1)-1]; weight codes are
unsigned in [0, 2^N - 1].  A group whose spread is below SPREAD_EPS is
constant: it gets a unit step and zero codes, and dequantizes to its mean
(token) or minimum (weight).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateScaleError, DimensionError, KvqError, NumericError
from .tensor import Tensor, round_half_away

S_FLOOR = 1e-6
SPREAD_EPS = 1e-12


# -- parameter containers -----------------------------------------------------


@dataclass
class SmoothingParams:
    """Per-output-channel scale s and shift delta for KV smoothing."""

    s: np.ndarray
    delta: np.ndarray
    absorbed: bool = False

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

    kind == "token": params are m, n with shape (T, n_groups); dequant is
    codes * n + m.  kind == "weight": params are h, z with shape
    (n_groups, C_out); dequant is (codes - z) * h.
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
    """Fold s and delta into the producing projection: W~ = W / s, B~ = (B - delta) / s."""
    if sp.absorbed:
        raise KvqError("smoothing already absorbed; refusing to divide twice")
    sp.check_scale()
    w = np.asarray(w, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32).reshape(1, -1)
    if w.shape[1] != sp.s.shape[0] or b.shape[1] != sp.s.shape[0]:
        raise DimensionError(
            f"smoothing length {sp.s.shape[0]} does not match projection width {w.shape[1]}"
        )
    w_t = w / sp.s[None, :]
    b_t = (b - sp.delta[None, :]) / sp.s[None, :]
    sp.absorbed = True
    return w_t.astype(np.float32), b_t.astype(np.float32)


def apply_kv_smoothing(x: np.ndarray, sp: SmoothingParams, direction: str,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Map between raw KV space and smoothed space, into out when given
    (out may be x itself).

    to_raw: Y~ * s + delta (after dequantizing cached KV).
    to_smoothed: (Y - delta) / s (only when smoothing is not absorbed).
    """
    x = np.asarray(x, dtype=np.float32)
    if direction == "to_raw":
        out = np.multiply(x, sp.s[None, :], out=out)
        out += sp.delta[None, :]
        return out
    if direction == "to_smoothed":
        sp.check_scale()
        out = np.subtract(x, sp.delta[None, :], out=out)
        out /= sp.s[None, :]
        return out
    raise KvqError(f"unknown smoothing direction: {direction!r}")


def init_smoothing(samples: np.ndarray, floor: float = 1e-5) -> SmoothingParams:
    """Initialize from calibration activations (rows = tokens, cols = channels).

    delta is the per-channel mean; s maps each channel's max absolute
    deviation to unit range, floored to keep the scale invertible.
    """
    samples = np.asarray(samples, dtype=np.float32)
    delta = samples.mean(axis=0)
    s = np.abs(samples - delta[None, :]).max(axis=0)
    s = np.maximum(s, floor)
    return SmoothingParams(s, delta)


# -- one core per kind: integer codes (runtime) and fake-quant (calibration) --


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
    """Join per-span arrays along axis (no copy for a single span)."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=axis)


def _add_at(a: np.ndarray, at: np.ndarray, v: np.ndarray, axis: int) -> None:
    """Add v to the one element per group that at picks along axis."""
    np.put_along_axis(a, at, np.take_along_axis(a, at, axis=axis) + v, axis=axis)


def _quantize_token_groups(y: np.ndarray, spec: TokenQuantSpec):
    """(T, groups * size) codes and (T, groups) m, n of a (T, groups, size) array.

    Codes round half away from zero in fewer passes than round_half_away:
    x + copysign(0.5, x) is sign(x) * (|x| + 0.5) exactly, and clipped to the
    code range, the int8 cast truncates it to the same code."""
    t, k, size = y.shape
    half = float(2 ** (spec.bits - 1))
    m = np.add.reduce(y, axis=2) / size  # mean(axis=2), without its wrapper's cost
    centered = y - m[:, :, None]
    spread = np.maximum.reduce(np.abs(centered), axis=2)
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
    codes = q.astype(np.int8)
    if any_flat:
        codes[flat] = 0
    return codes.reshape(t, k * size), m, n


def quantize_token(y: np.ndarray, spec: TokenQuantSpec) -> QuantizedTensor:
    """Per-token, per-group shifted-symmetric quantization.

    The full groups are quantized at once as a (T, groups, group_size) view;
    a short tail group is a separate slice with its own statistics.
    """
    y = np.asarray(y, dtype=np.float32)
    if not np.isfinite(y).all():
        raise NumericError("quantize_token: non-finite input")
    t, c = y.shape
    parts = [
        _quantize_token_groups(y[:, cols].reshape(t, k, size), spec)
        for cols, _, k, size in _spans(c, spec.group_size)
    ]
    codes, m, n = (_cat(arrays, 1) for arrays in zip(*parts))
    return QuantizedTensor(
        kind="token", codes=codes, bits=spec.bits, group_size=spec.group_size, m=m, n=n
    )


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
    out (a float32 array of the codes' shape) when given."""
    if q.kind not in ("token", "weight"):
        raise KvqError(f"unknown QuantizedTensor kind: {q.kind!r}")
    r, c = q.codes.shape
    if out is None:
        out = np.empty((r, c), dtype=np.float32)
    if q.kind == "token":
        for cols, gs, k, size in _spans(c, q.group_size):
            part = out[:, cols].reshape(r, k, size)  # a view: only the last axis splits
            part[...] = q.codes[:, cols].reshape(r, k, size)
            part *= q.n[:, gs, None]
            part += q.m[:, gs, None]
        return out
    for rows, gs, k, size in _spans(r, q.group_size):
        part = out[rows].reshape(k, size, c)
        part[...] = q.codes[rows].reshape(k, size, c)
        part -= q.z[gs, None, :]
        part *= q.h[gs, None, :]
    return out


def fake_quant_token(y: Tensor, bits: int, group_size: int) -> Tensor:
    """dequantize(quantize_token(y)) as one autodiff op, codes held fixed.

    Backward: with the codes q constant each group computes q * n + m, so the
    gradient is the exact local derivative q * dn + dm wherever the codes and
    each group's |y - m| argmax do not move.  n = |y_p - m| / half sends its
    gradient to the first element p attaining the largest deviation; a
    constant group (n = 1, zero codes) passes dm alone.
    """
    qt = quantize_token(y.data, TokenQuantSpec(bits, group_size))
    half = float(2 ** (bits - 1))

    def backward(g, y=y):
        t, c = g.shape
        parts = []
        for cols, gs, k, size in _spans(c, group_size):
            g3 = g[:, cols].reshape(t, k, size)
            centered = y.data[:, cols].reshape(t, k, size) - qt.m[:, gs, None]
            peak = np.abs(centered).argmax(axis=2)[:, :, None]
            at_peak = np.take_along_axis(centered, peak, axis=2)
            dn = np.where(np.abs(at_peak) < SPREAD_EPS, 0.0, np.sign(at_peak) / half)
            g_n = (g3 * qt.codes[:, cols].reshape(t, k, size)).sum(axis=2, keepdims=True) * dn
            dy = np.repeat((g3.sum(axis=2, keepdims=True) - g_n) / size, size, axis=2)
            _add_at(dy, peak, g_n, axis=2)
            parts.append(dy.reshape(t, k * size))
        y._accum(_cat(parts, 1))

    return Tensor._from_op(dequantize(qt), (y,), backward)


def fake_quant_weight(w: np.ndarray, bits: int, group_size: int) -> np.ndarray:
    """dequantize(quantize_weight(w)): the deployed rounding of w as floats."""
    return dequantize(quantize_weight(w, WeightQuantSpec(bits, group_size)))
