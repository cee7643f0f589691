"""Quantization math: channel smoothing with absorption, dynamic per-token
shifted-symmetric group quantization, and learnable-clipping weight quantization.

Two parallel implementations exist for each quantizer:

* integer-code functions operating on plain arrays (runtime path), and
* fake-quant functions operating on autodiff Tensors (calibration path).

The two fake-quant paths differentiate rounding differently.  The token path
holds its codes fixed in the backward pass, so its gradient is the exact
local derivative through the group mean and half-range.  The weight path
rounds with a straight-through gradient, the estimator OmniQuant trains its
learnable clipping with.  Scaling a weight column by 1/s leaves its codes
and zero-point unchanged, so the straight-through d/ds there is already
exact.

Token codes are signed and live in [-2^(N-1), 2^(N-1)-1]; weight codes are
unsigned in [0, 2^N - 1].  A trailing partial group keeps its own statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateScaleError, DimensionError, KvqError, NumericError
from .tensor import Tensor, concat_cols, concat_rows, round_half_away

S_FLOOR = 1e-6
SPREAD_EPS = 1e-12


def group_bounds(n: int, group_size: int) -> list[tuple[int, int]]:
    """Partition n channels into groups of group_size; the tail may be short."""
    if group_size < 1:
        raise KvqError(f"group_size must be positive, got {group_size}")
    return [(a, min(a + group_size, n)) for a in range(0, n, group_size)]


# -- parameter containers -----------------------------------------------------


@dataclass
class SmoothingParams:
    """Per-output-channel scale s and shift delta for KV smoothing."""

    s: np.ndarray
    delta: np.ndarray
    absorbed: bool = False
    to_raw_calls: int = 0  # instrumentation: cache reads must call to_raw once

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
    """Group-wise asymmetric weight quantization with clipping factors.

    gamma/beta hold the mapped clipping values in (0, 1], shaped
    (n_groups, C_out) or None for the RTN case (both treated as 1).
    literal_range enables the narrow-range ablation (step divisor and clamp
    ceiling both 2^(N-1)) instead of the standard 2^N - 1 scheme.
    """

    bits: int = 4
    group_size: int = 128
    gamma: np.ndarray | None = None
    beta: np.ndarray | None = None
    literal_range: bool = False

    @property
    def code_hi(self) -> int:
        return 2 ** (self.bits - 1) if self.literal_range else 2**self.bits - 1

    @property
    def step_div(self) -> float:
        return float(2 ** (self.bits - 1) if self.literal_range else 2**self.bits - 1)


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

    def dequantize(self) -> np.ndarray:
        return dequantize(self)

    def nbytes_modeled(self) -> int:
        """Bytes under the deployment model: packed codes + 16-bit params."""
        param_count = (self.m.size + self.n.size) if self.kind == "token" else (
            self.h.size + self.z.size
        )
        return self.codes.size * self.bits // 8 + param_count * 2


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


def apply_kv_smoothing(x, sp: SmoothingParams, direction: str) -> np.ndarray:
    """Map between raw KV space and smoothed space.

    to_raw: Y~ * s + delta (after dequantizing cached KV).
    to_smoothed: (Y - delta) / s (only when smoothing is not absorbed).
    """
    if isinstance(x, QuantizedTensor):
        x = x.dequantize()
    x = np.asarray(x, dtype=np.float32)
    if direction == "to_raw":
        sp.to_raw_calls += 1
        out = x * sp.s[None, :]
        out += sp.delta[None, :]
        return out
    if direction == "to_smoothed":
        sp.check_scale()
        return (x - sp.delta[None, :]) / sp.s[None, :]
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


# -- integer-code quantizers (runtime path) -----------------------------------


def _group_spans(c: int, group_size: int) -> list[tuple[int, int, int]]:
    """(start, stop, size): all full groups as one span, then a short tail group."""
    group_bounds(c, group_size)  # rejects a non-positive group_size
    full = c - c % group_size
    spans = [(0, full, group_size)] if full else []
    if full < c:
        spans.append((full, c, c - full))
    return spans


def _quantize_token_groups(y: np.ndarray, spec: TokenQuantSpec):
    """(T, groups * size) codes and (T, groups) m, n of a (T, groups, size) array."""
    t, k, size = y.shape
    half = float(2 ** (spec.bits - 1))
    m = y.mean(axis=2)
    centered = y - m[:, :, None]
    spread = np.abs(centered).max(axis=2)
    flat = spread < SPREAD_EPS
    n = np.where(flat, 1.0, spread / half).astype(np.float32)
    q = round_half_away(centered / n[:, :, None])
    np.clip(q, spec.code_lo, spec.code_hi, out=q)
    q[flat] = 0.0
    return q.astype(np.int8).reshape(t, k * size), m, n


def quantize_token(y: np.ndarray, spec: TokenQuantSpec) -> QuantizedTensor:
    """Per-token, per-group shifted-symmetric quantization.

    The full groups are quantized at once as a (T, groups, group_size) view;
    a short tail group is a separate slice with its own statistics.
    """
    y = np.asarray(y, dtype=np.float32)
    if not np.all(np.isfinite(y)):
        raise NumericError("quantize_token: non-finite input")
    t, c = y.shape
    parts = [
        _quantize_token_groups(y[:, a:b].reshape(t, (b - a) // size, size), spec)
        for a, b, size in _group_spans(c, spec.group_size)
    ]
    codes, m, n = parts[0] if len(parts) == 1 else (
        np.concatenate(arrays, axis=1) for arrays in zip(*parts)
    )
    return QuantizedTensor(
        kind="token", codes=codes, bits=spec.bits, group_size=spec.group_size, m=m, n=n
    )


def quantize_weight(w: np.ndarray, spec: WeightQuantSpec) -> QuantizedTensor:
    """Group-wise (input-channel axis) asymmetric quantization with clipping."""
    w = np.asarray(w, dtype=np.float32)
    if not np.all(np.isfinite(w)):
        raise NumericError("quantize_weight: non-finite input")
    r, c = w.shape
    bounds = group_bounds(r, spec.group_size)
    ng = len(bounds)
    gamma = np.ones((ng, c), dtype=np.float32) if spec.gamma is None else np.asarray(
        spec.gamma, dtype=np.float32
    ).reshape(ng, c)
    beta = np.ones((ng, c), dtype=np.float32) if spec.beta is None else np.asarray(
        spec.beta, dtype=np.float32
    ).reshape(ng, c)
    codes = np.empty((r, c), dtype=np.uint8)
    h = np.empty((ng, c), dtype=np.float32)
    z = np.empty((ng, c), dtype=np.float32)
    for g, (a, b) in enumerate(bounds):
        block = w[a:b, :]
        top = gamma[g] * block.max(axis=0)
        bot = beta[g] * block.min(axis=0)
        hg = (top - bot) / spec.step_div
        degenerate = (top - bot) < SPREAD_EPS
        hg = np.where(degenerate, 1.0, hg).astype(np.float32)
        zg = -round_half_away(bot / hg)
        # constant group: unit step, zero codes, and an exact (unrounded)
        # zero-point so dequantization reproduces the constant losslessly
        zg = np.where(degenerate, -bot, zg).astype(np.float32)
        q = round_half_away(block / hg[None, :]) + zg[None, :]
        np.clip(q, 0, spec.code_hi, out=q)
        q[:, degenerate] = 0.0
        codes[a:b, :] = q.astype(np.uint8)
        h[g] = hg
        z[g] = zg
    return QuantizedTensor(
        kind="weight", codes=codes, bits=spec.bits, group_size=spec.group_size, h=h, z=z
    )


def dequantize(q: QuantizedTensor) -> np.ndarray:
    if q.kind == "token":
        t, c = q.codes.shape
        parts, g = [], 0
        for a, b, size in _group_spans(c, q.group_size):
            k = (b - a) // size
            part = q.codes[:, a:b].reshape(t, k, size).astype(np.float32)
            part *= q.n[:, g : g + k, None]
            part += q.m[:, g : g + k, None]
            parts.append(part.reshape(t, b - a))
            g += k
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    if q.kind == "weight":
        r, c = q.codes.shape
        out = np.empty((r, c), dtype=np.float32)
        for g, (a, b) in enumerate(group_bounds(r, q.group_size)):
            out[a:b, :] = (q.codes[a:b, :].astype(np.float32) - q.z[g][None, :]) * q.h[
                g
            ][None, :]
        return out
    raise KvqError(f"unknown QuantizedTensor kind: {q.kind!r}")


# -- fake-quant (calibration path, differentiable) ----------------------------

FAKE_EPS = 1e-8


def fake_quant_token(y: Tensor, bits: int, group_size: int) -> Tensor:
    """In-graph quantize -> dequantize with the codes held fixed (token path).

    Forward: q * n + m with q = clamp(round((y - m) / n)).  Backward: q is a
    constant, so the gradient is the exact local derivative q * dn + dm of
    the computed function wherever the codes and each group's |y - m| argmax
    do not move; it flows only through the group mean m and half-range n.
    """
    c = y.shape[1]
    half = float(2 ** (bits - 1))
    lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    parts = []
    for a, b in group_bounds(c, group_size):
        block = y.slice_cols(a, b)
        m = block.mean(axis=1, keepdims=True)
        centered = block - m
        n = centered.abs().max(axis=1, keepdims=True) / half
        n = n.maximum(FAKE_EPS)
        q = Tensor(np.clip(round_half_away(centered.data / n.data), lo, hi))
        parts.append(q * n + m)
    return parts[0] if len(parts) == 1 else concat_cols(parts)


def fake_quant_weight(
    w: Tensor,
    gamma: Tensor,
    beta: Tensor,
    bits: int,
    group_size: int,
    literal_range: bool = False,
) -> Tensor:
    """In-graph quantize -> dequantize with STE rounding (weight path).

    gamma and beta are (n_groups, C_out) Tensors of mapped clipping values.
    """
    r = w.shape[0]
    bounds = group_bounds(r, group_size)
    div = float(2 ** (bits - 1) if literal_range else 2**bits - 1)
    hi = float(2 ** (bits - 1) if literal_range else 2**bits - 1)
    parts = []
    for g, (a, b) in enumerate(bounds):
        block = w.slice_rows(a, b)
        top = gamma.slice_rows(g, g + 1) * block.max(axis=0, keepdims=True)
        bot = beta.slice_rows(g, g + 1) * block.min(axis=0, keepdims=True)
        h = ((top - bot) / div).maximum(FAKE_EPS)
        z = (Tensor(0.0) - (bot / h)).round_ste()
        q = ((block / h).round_ste() + z).clamp(0.0, hi)
        parts.append((q - z) * h)
    return parts[0] if len(parts) == 1 else concat_rows(parts)


def smooth_tensor(y: Tensor, s: Tensor, delta: Tensor) -> Tensor:
    """(Y - delta) / s with row-vector parameters (differentiable)."""
    return (y - delta) / s


def unsmooth_tensor(y: Tensor, s: Tensor, delta: Tensor) -> Tensor:
    """Y~ * s + delta (differentiable inverse of smooth_tensor)."""
    return y * s + delta
