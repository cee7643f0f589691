"""Float64 references for kvq's fast paths.

model_logits is the whole runtime model, one row at a time: rms_norm, the
projections, un-smoothing, each key rotated at its own position, softmax
and P . V for each head, the gated MLP and the head.  It reads the K/V a
quantized cache holds back from the stored codes, m and n (raw_rows) and
quantizes nothing itself, so a float32 / float64 difference can never
round a code differently from the live model.

decode_attention is one decode step's attention over a quantized cache
layer.  It takes the layer's stored K/V codes and per-(token, group) m, n
(its slabs of the cache's store), the layer's K/V smoothing, a query row
and the step's own K/V rows, and computes the step's scores and output in
float64 by the definitions: dequantize
(codes * n + m), un-smooth (y * s + delta), rotate every key at its
position, then softmax and P . V.

causal_attention is causal attention over stacked sequences, with or
without the POQ diagonal, as one whole float64 scores matrix per sequence:
scores, mask, softmax, then the probabilities times the values.

block is one decoder block over one whole sequence, and gated_mlp its MLP,
which model_logits runs too.  calib_block is crr_loss's quantized block:
the K/V smoothing absorbed into the k and v weights, each K/V row's round
trip at the token codes the live round trip made (held_fake_quant), and
un-smoothing, so a candidate's loss can be checked in float64.

adam_step is one Adam step of one parameter, by the textbook formula.

They use no kvq kernel, so a fast path tested against them is held to the
size of its error, not to an order of float32 operations.  What a reference
holds fixed (a cache's codes, a round trip's codes) it takes from the live
model, and quantizes nothing itself.
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


def rms_norm(x: np.ndarray, gain: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """x / sqrt(mean(x * x) + eps) * gain over the channels, in float64."""
    x = np.asarray(x, dtype=np.float64)
    return x / np.sqrt((x * x).mean(axis=1, keepdims=True) + eps) * gain


def raw_rows(codes: np.ndarray, m: np.ndarray, n: np.ndarray, group_size: int,
             smoothing) -> np.ndarray:
    """Stored token codes back to raw space: codes * n + m for each row's
    group, then y * s + delta when the layer carries smoothing."""
    group = np.arange(codes.shape[1]) // group_size
    y = codes.astype(np.float64) * n.astype(np.float64)[:, group] + m[:, group]
    if smoothing is None:
        return y
    return y * smoothing.s.astype(np.float64) + smoothing.delta.astype(np.float64)


def gated_mlp(x, wg, bg, wu, bu, wd, bd) -> np.ndarray:
    """(silu(x @ wg + bg) * (x @ wu + bu)) @ wd + bd in float64, silu(z) =
    z / (1 + exp(-z))."""
    x = np.asarray(x, dtype=np.float64)
    gate = x @ wg + bg
    return (gate / (1.0 + np.exp(-gate)) * (x @ wu + bu)) @ wd + bd


def model_logits(model, ids, chunks, cache) -> np.ndarray:
    """(len(ids), vocab) float64 logits of ids as forwards of chunk lengths
    chunks, the first from position 0, compute them onto cache, the live
    cache those forwards filled (prefill, then chunks or decode steps).

    The config is the cache's.  A row reads the K/V of earlier chunks back
    from the cache's codes, m and n; those of its own chunk, up to and
    including itself, are its raw rows with POQ on and are read back from
    the codes with POQ off.  An fp cache gives raw rows throughout.  The
    weight_activation mode is not covered: its activation codes would round
    differently in float64.
    """
    cfg = cache.cfg
    if cfg.quant_mode == "weight_activation":
        raise ValueError("model_logits does not model activation quantization")
    h, d = cfg.n_heads, cfg.head_dim
    f64 = lambda a: np.asarray(a, dtype=np.float64)
    n = len(ids)
    pos = np.arange(n)
    chunk_start = np.repeat(np.cumsum([0, *chunks[:-1]]), chunks)

    def proj(x, lin):
        return x @ f64(lin.w) + f64(lin.b)

    def raw(x, lin):
        y, sp = proj(x, lin), lin.smoothing
        return y if sp is None else y * f64(sp.s) + f64(sp.delta)

    x = f64(model.embed[np.asarray(ids)])
    for li, blk in enumerate(model.blocks):
        xn = rms_norm(x, blk.attn_norm)
        q = rotate(proj(xn, blk.q), pos, cfg.rope_base, d).reshape(n, h, d)
        k, v = raw(xn, blk.k), raw(xn, blk.v)
        k_read, v_read = k, v
        if cfg.kv_codes:
            k_read, v_read = (raw_rows(cache.codes[li, j, :n], *cache.params[li, j, :, :n],
                                       cfg.kv_group_size, lin.smoothing)
                              for j, lin in enumerate((blk.k, blk.v)))
        k, k_read = (rotate(a, pos, cfg.rope_base, d) for a in (k, k_read))
        attn = np.empty((n, h, d))
        for i in range(n):
            own = chunk_start[i] if cfg.poq else i + 1  # rows from here on are raw
            keys = np.concatenate([k_read[:own], k[own : i + 1]]).reshape(-1, h, d)
            values = np.concatenate([v_read[:own], v[own : i + 1]]).reshape(-1, h, d)
            z = np.einsum("hd,shd->hs", q[i], keys) / np.sqrt(d)
            p = np.exp(z - z.max(axis=1, keepdims=True))
            attn[i] = np.einsum("hs,shd->hd", p / p.sum(axis=1, keepdims=True), values)
        x = x + proj(attn.reshape(n, -1), blk.o)
        mlp = [a for lin in (blk.gate, blk.up, blk.down) for a in (lin.w, lin.b)]
        x = x + gated_mlp(rms_norm(x, blk.mlp_norm), *mlp)
    return proj(rms_norm(x, model.final_norm), model.head)


def decode_attention(cfg, codes: np.ndarray, params: np.ndarray, past: int, smoothing: tuple,
                     q: np.ndarray, k: np.ndarray, v: np.ndarray):
    """Scores, probabilities and output of a decode step at position past.

    codes, (2, rows, hidden), holds the layer's stored K/V codes and params,
    (2, 2, rows, groups), their m and n, indexed [K/V, (m/n,) row, ...]
    (rows 0 .. past-1 are read); smoothing is the layer's (K, V)
    SmoothingParams or None each; q, k and v are the step's (1, hidden)
    query, key and value rows before rotation.
    Returns scores (H, past + 1), the raw q . k over the past keys and then
    the step's own key; p, their softmax after the 1 / sqrt(head_dim) scale;
    and out (H, head_dim), p applied to the past values and then the step's
    own value.
    """
    h, d, g = cfg.n_heads, cfg.head_dim, cfg.kv_group_size
    past_k, past_v = (raw_rows(codes[j, :past], *params[j, :, :past], g, sp)
                      for j, sp in enumerate(smoothing))
    keys = rotate(np.concatenate([past_k, k]), np.arange(past + 1), cfg.rope_base, d)
    values = np.concatenate([past_v, np.asarray(v, dtype=np.float64)])
    query = rotate(q, [past], cfg.rope_base, d)
    heads = lambda a: a.reshape(len(a), h, d).transpose(1, 0, 2)
    scores = np.einsum("hd,hsd->hs", heads(query)[:, 0], heads(keys))
    z = scores / np.sqrt(d)
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    return scores, p, np.einsum("hs,hsd->hd", p, heads(values))


def causal_attention(q, k, v, n_heads: int, diag=None, seqs: int = 1) -> np.ndarray:
    """softmax(q k^T / sqrt(d) + causal mask) v in float64 for every head of
    seqs sequences stacked as rows, as (seqs * T, n_heads * d).

    A sequence's k and v rows are at positions 0 .. S-1 and its q rows at
    the last T of them, so query row i sees the keys j <= S-T+i.  The POQ
    diagonal diag = (k_cur, v_cur), each shaped as q, gives row i the key
    k_cur[i] and the value v_cur[i] at its own column S-T+i in place of
    k[S-T+i] and v[S-T+i]."""
    t, s = q.shape[0] // seqs, k.shape[0] // seqs
    d = q.shape[1] // n_heads
    heads = lambda a, b, n: (np.asarray(a[b * n : (b + 1) * n], dtype=np.float64)
                             .reshape(n, n_heads, d).transpose(1, 0, 2))
    rows, cols = np.arange(t), np.arange(t) + s - t
    out = []
    for b in range(seqs):
        qh, kh, vh = heads(q, b, t), heads(k, b, s), heads(v, b, s)
        z = qh @ kh.transpose(0, 2, 1)
        if diag is not None:
            kc, vc = heads(diag[0], b, t), heads(diag[1], b, t)
            z[:, rows, cols] = np.einsum("htd,htd->ht", qh, kc)
        z = np.where(np.arange(s) <= cols[:, None], z / np.sqrt(d), -np.inf)
        p = np.exp(z - z.max(axis=2, keepdims=True))
        p /= p.sum(axis=2, keepdims=True)
        o = p @ vh
        if diag is not None:  # row i's value at column S-T+i is v_cur[i]
            o += p[:, rows, cols][..., None] * (vc - vh[:, cols])
        out.append(o.transpose(1, 0, 2).reshape(t, -1))
    return np.concatenate(out)


def block(cfg, w, x, kv=lambda k, v: (k, v)) -> np.ndarray:
    """One decoder block over one sequence x (T, C) at positions 0 .. T-1,
    in float64.  w holds its weights under model.block_arrays' names; kv
    maps the k and v projection outputs to raw K and V (by default they
    are raw)."""
    w = {name: np.asarray(a, dtype=np.float64) for name, a in w.items()}
    x = np.asarray(x, dtype=np.float64)
    pos = np.arange(len(x))
    proj = lambda a, name: a @ w[f"{name}_w"] + w[f"{name}_b"]
    xn = rms_norm(x, w["attn_norm"])
    k, v = kv(proj(xn, "k"), proj(xn, "v"))
    q, k = (rotate(a, pos, cfg.rope_base, cfg.head_dim) for a in (proj(xn, "q"), k))
    x = x + proj(causal_attention(q, k, v, cfg.n_heads), "o")
    mlp = [w[f"{name}_{p}"] for name in ("gate", "up", "down") for p in "wb"]
    return x + gated_mlp(rms_norm(x, w["mlp_norm"]), *mlp)


def held_fake_quant(y, codes, bits: int, group_size: int) -> np.ndarray:
    """The token round trip of y (T, C) in float64 at held codes: codes * n
    + m for each token group, m its mean and n = max |y - m| / 2^(bits-1).
    A constant group's codes are zero, so it gives m."""
    y = np.asarray(y, dtype=np.float64)
    out = np.empty_like(y)
    for a in range(0, y.shape[1], group_size):
        grp = y[:, a : a + group_size]
        m = grp.mean(axis=1, keepdims=True)
        n = np.abs(grp - m).max(axis=1, keepdims=True) / 2.0 ** (bits - 1)
        out[:, a : a + group_size] = codes[:, a : a + group_size] * n + m
    return out


def calib_block(cfg, w, x, smoothing, held) -> np.ndarray:
    """crr_loss's quantized block over one sequence x, in float64.

    w holds the block's weights as block takes them, with its projections'
    quantized weights.  smoothing is (s_k, d_k, s_v, d_v), each a (1, C)
    row: the k and v projections are Q(w) / s and (b - d) / s, their
    outputs take the round trip at held = (k_codes, v_codes)
    (held_fake_quant), and then are un-smoothed, y * s + d."""
    s_k, d_k, s_v, d_v = (np.asarray(a, dtype=np.float64) for a in smoothing)
    w = dict(w, k_w=w["k_w"] / s_k, k_b=(w["k_b"] - d_k) / s_k,
             v_w=w["v_w"] / s_v, v_b=(w["v_b"] - d_v) / s_v)

    def kv(k, v):
        k, v = (held_fake_quant(a, codes, cfg.kv_bits, cfg.kv_group_size)
                for a, codes in zip((k, v), held))
        return k * s_k + d_k, v * s_v + d_v

    return block(cfg, w, x, kv)


def adam_step(p, g, m, v, t: int, lr: float, b1: float = 0.9, b2: float = 0.999,
              eps: float = 1e-8):
    """Adam at step t (from 1) in float64: the new (p, m, v) of a parameter p
    with gradient g and moments m, v."""
    g = np.asarray(g, dtype=np.float64)
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    m_hat, v_hat = m / (1 - b1**t), v / (1 - b2**t)
    return p - lr * m_hat / (np.sqrt(v_hat) + eps), m, v
