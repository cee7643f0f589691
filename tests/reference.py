"""Float64 references for kvq's fast paths.

decode_attention is one decode step's attention over a quantized cache
layer.  It takes the layer's stored codes and per-(token, group) m, n, the
layer's K/V smoothing, a query row and the step's own K/V rows, and computes
the step's scores and output in float64 by the definitions: dequantize
(codes * n + m), un-smooth (y * s + delta), rotate every key at its
position, then softmax and P . V.

adam_step is one Adam step of one parameter, by the textbook formula.

They use no kvq kernel, so a fast path tested against them is held to the
size of its error, not to an order of float32 operations.
"""

from __future__ import annotations

import numpy as np


def rotate(x: np.ndarray, positions, base: float, head_dim: int) -> np.ndarray:
    """Rotary embedding of the rows of x at positions, in float64, every head
    in the rotate-half layout: [x1, x2] -> [x1 cos - x2 sin, x2 cos + x1 sin]."""
    rows, width = x.shape
    half = head_dim // 2
    inv_freq = base ** (-np.arange(half, dtype=np.float64) * 2.0 / head_dim)
    angle = np.asarray(positions, dtype=np.float64)[:, None, None] * inv_freq
    cos, sin = np.cos(angle), np.sin(angle)
    x3 = np.asarray(x, dtype=np.float64).reshape(rows, width // head_dim, head_dim)
    x1, x2 = x3[..., :half], x3[..., half:]
    return np.concatenate([x1 * cos - x2 * sin, x2 * cos + x1 * sin], axis=-1).reshape(rows, width)


def raw_rows(codes: np.ndarray, m: np.ndarray, n: np.ndarray, group_size: int,
             smoothing) -> np.ndarray:
    """Stored token codes back to raw space: codes * n + m for each row's
    group, then y * s + delta when the layer carries smoothing."""
    group = np.arange(codes.shape[1]) // group_size
    y = codes.astype(np.float64) * n.astype(np.float64)[:, group] + m[:, group]
    if smoothing is None:
        return y
    return y * smoothing.s.astype(np.float64) + smoothing.delta.astype(np.float64)


def decode_attention(cfg, layer, past: int, smoothing: tuple, q: np.ndarray,
                     k: np.ndarray, v: np.ndarray):
    """Scores, probabilities and output of a decode step at position past.

    layer holds the stored K/V codes and their m, n (rows 0 .. past-1);
    smoothing is the layer's (K, V) SmoothingParams or None each; q, k and v
    are the step's (1, hidden) query, key and value rows before rotation.
    Returns scores (H, past + 1), the raw q . k over the past keys and then
    the step's own key; p, their softmax after the 1 / sqrt(head_dim) scale;
    and out (H, head_dim), p applied to the past values and then the step's
    own value.
    """
    h, d, g = cfg.n_heads, cfg.head_dim, cfg.kv_group_size
    sp_k, sp_v = smoothing
    past_k = raw_rows(layer.k_codes[:past], layer.k_m[:past], layer.k_n[:past], g, sp_k)
    past_v = raw_rows(layer.v_codes[:past], layer.v_m[:past], layer.v_n[:past], g, sp_v)
    keys = rotate(np.concatenate([past_k, k]), np.arange(past + 1), cfg.rope_base, d)
    values = np.concatenate([past_v, np.asarray(v, dtype=np.float64)])
    query = rotate(q, [past], cfg.rope_base, d)
    heads = lambda a: a.reshape(len(a), h, d).transpose(1, 0, 2)
    scores = np.einsum("hd,hsd->hs", heads(query)[:, 0], heads(keys))
    z = scores / np.sqrt(d)
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    return scores, p, np.einsum("hs,hsd->hd", p, heads(values))


def adam_step(p, g, m, v, t: int, lr: float, b1: float = 0.9, b2: float = 0.999,
              eps: float = 1e-8):
    """Adam at step t (from 1) in float64: the new (p, m, v) of a parameter p
    with gradient g and moments m, v."""
    g = np.asarray(g, dtype=np.float64)
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    m_hat, v_hat = m / (1 - b1**t), v / (1 - b2**t)
    return p - lr * m_hat / (np.sqrt(v_hat) + eps), m, v
