"""Small decoder-only transformer (pre-norm attention + gated MLP) with
prefill/decode phases and a past-only-quantized KV cache.

Quantization modes:

* fp                 - raw weights, full-precision cache.
* weight_only        - (de)quantized weights, full-precision cache.
* weight_kv          - quantized weights, past KV stored as token codes of the
                       smoothed projection outputs; the current step's K/V stay
                       full precision in attention (past-only quantization).
* weight_activation  - quantized weights plus per-token RTN quantization of
                       every linear-layer input (sensitivity harness only).

The cache stores pre-rotary smoothed K (and V); a read dequantizes, maps to
raw space exactly once, then applies the rotary embedding for the stored
positions.

Cache protocol: PoqKvCache.length is the one record of how many positions
the cache holds, and a forward over a chunk starts at that position.  Each
block's KV handler first reads the past rows 0 .. length-1, then appends the
chunk's rows at length .. length+t-1 (append is the only write site and the
only capacity check).  model_forward advances length once, after the last
block, so a forward that raises part-way leaves length unchanged and the
next forward overwrites the rows it had written.

block_core is the one block forward of prefill, decode, cache-path scoring,
calibration and training.  It treats all heads at once: each of Q, K and a
cache read is rotated by a single rope call over (T, n_heads * head_dim), and
causal_attention computes every head's scores, in-place causal softmax and
weighted sum as one tape node with an explicit backward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, KvqError
from .quantizers import (
    QuantizedTensor,
    SmoothingParams,
    TokenQuantSpec,
    WeightQuantSpec,
    absorb_smoothing,
    apply_kv_smoothing,
    dequantize,
    quantize_token,
    quantize_weight,
)
from .tensor import Tensor, concat_rows, rms_norm, rope, softmax_causal

MODES = ("fp", "weight_only", "weight_kv", "weight_activation")


@dataclass
class ModelConfig:
    n_layers: int = 4
    hidden_size: int = 128
    n_heads: int = 4
    head_dim: int = 32
    intermediate_size: int = 344
    vocab_size: int = 258
    max_seq_len: int = 512
    rope_base: float = 10000.0
    quant_mode: str = "fp"
    kv_bits: int = 4
    weight_bits: int = 4
    kv_group_size: int = 32
    weight_group_size: int = 128
    poq: bool = True

    def __post_init__(self):
        if self.hidden_size != self.n_heads * self.head_dim:
            raise KvqError(
                f"hidden_size {self.hidden_size} != n_heads*head_dim "
                f"{self.n_heads}*{self.head_dim}"
            )
        if self.max_seq_len < 1 or self.vocab_size < 2:
            raise KvqError("max_seq_len must be >= 1 and vocab_size >= 2")
        if self.quant_mode not in MODES:
            raise KvqError(f"unknown quant_mode: {self.quant_mode!r}")

    @property
    def kv_quantized(self) -> bool:
        return self.kv_bits < 16

    def token_spec(self) -> TokenQuantSpec:
        return TokenQuantSpec(bits=self.kv_bits, group_size=self.kv_group_size)


@dataclass
class Linear:
    w: np.ndarray  # (C_in, C_out)
    b: np.ndarray  # (1, C_out)
    smoothing: SmoothingParams | None = None
    # weight codes; when set, w == dequantize(wq) and a checkpoint stores only wq
    wq: QuantizedTensor | None = None


@dataclass
class DecoderBlockWeights:
    q: Linear
    k: Linear
    v: Linear
    o: Linear
    gate: Linear
    up: Linear
    down: Linear
    attn_norm: np.ndarray
    mlp_norm: np.ndarray

    def projections(self) -> dict[str, Linear]:
        return {
            "q": self.q,
            "k": self.k,
            "v": self.v,
            "o": self.o,
            "gate": self.gate,
            "up": self.up,
            "down": self.down,
        }


class Model:
    def __init__(
        self,
        config: ModelConfig,
        embed: np.ndarray,
        blocks: list[DecoderBlockWeights],
        final_norm: np.ndarray,
        head: Linear,
    ):
        self.config = config
        self.embed = embed
        self.blocks = blocks
        self.final_norm = final_norm
        self.head = head

    @staticmethod
    def random(config: ModelConfig, seed: int = 0) -> "Model":
        rng = np.random.default_rng(seed)
        c, inter, v = config.hidden_size, config.intermediate_size, config.vocab_size
        std = 0.02
        res_std = std / np.sqrt(2.0 * config.n_layers)

        def lin(cin, cout, scale):
            return Linear(
                w=rng.normal(0.0, scale, (cin, cout)).astype(np.float32),
                b=np.zeros((1, cout), dtype=np.float32),
            )

        blocks = []
        for _ in range(config.n_layers):
            blocks.append(
                DecoderBlockWeights(
                    q=lin(c, c, std),
                    k=lin(c, c, std),
                    v=lin(c, c, std),
                    o=lin(c, c, res_std),
                    gate=lin(c, inter, std),
                    up=lin(c, inter, std),
                    down=lin(inter, c, res_std),
                    attn_norm=np.ones(c, dtype=np.float32),
                    mlp_norm=np.ones(c, dtype=np.float32),
                )
            )
        return Model(
            config=config,
            embed=rng.normal(0.0, std, (v, c)).astype(np.float32),
            blocks=blocks,
            final_norm=np.ones(c, dtype=np.float32),
            head=lin(c, v, std),
        )


# -- KV cache -----------------------------------------------------------------


class LayerCache:
    def __init__(self, cfg: ModelConfig, mode: str):
        c = cfg.hidden_size
        t = cfg.max_seq_len
        self.quantized = mode == "weight_kv" and cfg.kv_quantized
        if self.quantized:
            spec = cfg.token_spec()
            g = (c + spec.group_size - 1) // spec.group_size
            self.k_codes = np.zeros((t, c), dtype=np.int8)
            self.v_codes = np.zeros((t, c), dtype=np.int8)
            self.k_m = np.zeros((t, g), dtype=np.float32)
            self.k_n = np.ones((t, g), dtype=np.float32)
            self.v_m = np.zeros((t, g), dtype=np.float32)
            self.v_n = np.ones((t, g), dtype=np.float32)
        else:
            self.k_fp = np.zeros((t, c), dtype=np.float32)
            self.v_fp = np.zeros((t, c), dtype=np.float32)


class PoqKvCache:
    """Per-layer paged store of past keys/values.

    Quantized layout holds token codes of the smoothed pre-rotary projections
    plus per-(token, group) parameters; the fp layout holds raw-space arrays
    (pre-rotary K).  length counts the positions every layer holds; only
    model_forward advances it.
    """

    def __init__(self, cfg: ModelConfig, blocks: list[DecoderBlockWeights],
                 mode: str | None = None):
        self.cfg = cfg
        self.blocks = blocks
        self.mode = cfg.quant_mode if mode is None else mode
        self.layers = [LayerCache(cfg, self.mode) for _ in range(cfg.n_layers)]
        self.length = 0

    def append(self, li: int, k_s: np.ndarray, v_s: np.ndarray, k_raw: np.ndarray, v_raw: np.ndarray) -> None:
        """Store a chunk's KV for layer li at rows length .. length+t-1
        (k_s/v_s smoothed, k_raw/v_raw raw)."""
        t = k_s.shape[0]
        start = self.length
        if start + t > self.cfg.max_seq_len:
            raise CapacityError(
                f"cache capacity exceeded: {start}+{t} > {self.cfg.max_seq_len}"
            )
        lc = self.layers[li]
        if lc.quantized:
            spec = self.cfg.token_spec()
            qk = quantize_token(k_s, spec)
            qv = quantize_token(v_s, spec)
            lc.k_codes[start : start + t] = qk.codes
            lc.k_m[start : start + t] = qk.m
            lc.k_n[start : start + t] = qk.n
            lc.v_codes[start : start + t] = qv.codes
            lc.v_m[start : start + t] = qv.m
            lc.v_n[start : start + t] = qv.n
        else:
            lc.k_fp[start : start + t] = k_raw
            lc.v_fp[start : start + t] = v_raw

    def read_raw(self, li: int) -> tuple[np.ndarray, np.ndarray]:
        """Return raw-space (pre-rotary K) past KV for layer li."""
        lc = self.layers[li]
        t = self.length
        if not lc.quantized:
            return lc.k_fp[:t], lc.v_fp[:t]
        spec = self.cfg.token_spec()
        qk = QuantizedTensor(
            "token", lc.k_codes[:t], spec.bits, spec.group_size, m=lc.k_m[:t], n=lc.k_n[:t]
        )
        qv = QuantizedTensor(
            "token", lc.v_codes[:t], spec.bits, spec.group_size, m=lc.v_m[:t], n=lc.v_n[:t]
        )
        return _dequantize_raw(self.blocks[li], qk, qv)

    def kv_bytes(self) -> int:
        """Deployment-model byte count of the live cache (packed codes + 16-bit params)."""
        total = 0
        t = self.length
        for lc in self.layers:
            if lc.quantized:
                bits = self.cfg.kv_bits
                total += (lc.k_codes[:t].size + lc.v_codes[:t].size) * bits // 8
                total += (
                    lc.k_m[:t].size + lc.k_n[:t].size + lc.v_m[:t].size + lc.v_n[:t].size
                ) * 2
            else:
                # unquantized storage deploys as fp16 (or the stated wider bits)
                bits = max(self.cfg.kv_bits, 16)
                total += (lc.k_fp[:t].size + lc.v_fp[:t].size) * bits // 8
        return total


# -- forward pass -------------------------------------------------------------


def causal_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, offset: int,
                     diag: tuple[Tensor, Tensor] | None = None) -> Tensor:
    """softmax(q k^T / sqrt(d) + causal mask) v for every head, as one tape node.

    q is (T, H*D) at absolute positions offset .. offset+T-1; k and v are
    (S, H*D) at positions 0 .. S-1.  The heads are (H, rows, D) views of the
    inputs; the (H, T, S) scores buffer becomes the probabilities in place,
    and the backward keeps only that buffer and the inputs.

    The POQ diagonal diag = (k_cur, v_cur), each (T, H*D), stands in for the
    keys and values at column offset+i of query row i: with k and v from the
    cache round trip, every row attends as a decode step does.
    """
    t, s = q.shape[0], k.shape[0]
    d = q.shape[1] // n_heads
    scale = np.float32(1.0 / np.sqrt(d))

    def heads(a: np.ndarray, rows: int) -> np.ndarray:
        return a.reshape(rows, n_heads, d).transpose(1, 0, 2)

    def merge(a: np.ndarray) -> np.ndarray:
        return a.transpose(1, 0, 2).reshape(a.shape[1], n_heads * d)

    qh, kh, vh = heads(q.data, t), heads(k.data, s), heads(v.data, s)
    p = np.matmul(qh, kh.transpose(0, 2, 1))
    if diag is not None:
        kch, vch = heads(diag[0].data, t), heads(diag[1].data, t)
        ii, cur = (slice(None), np.arange(t), np.arange(t) + offset), slice(offset, offset + t)
        p[ii] = np.einsum("htd,htd->ht", qh, kch)
    p *= scale
    softmax_causal(p, offset)
    out = np.matmul(p, vh)
    if diag is not None:
        out += p[ii][..., None] * (vch - vh[:, cur])

    parents = (q, k, v) + tuple(diag or ())

    def backward(g):
        gh = heads(g, t)
        dp = np.matmul(gh, vh.transpose(0, 2, 1))
        if diag is not None:
            dp[ii] = np.einsum("htd,htd->ht", gh, vch)
        ds = p * (dp - (dp * p).sum(axis=2, keepdims=True))
        ds *= scale
        grads = [np.matmul(ds, kh), np.matmul(qh.transpose(0, 2, 1), ds).transpose(0, 2, 1),
                 np.matmul(p.transpose(0, 2, 1), gh)]
        if diag is not None:  # the diagonal column read (k_cur, v_cur), not (k, v)
            pd, dsd = p[ii][..., None], ds[ii][..., None]
            grads[0] += dsd * (kch - kh[:, cur])
            grads[1][:, cur] -= dsd * qh
            grads[2][:, cur] -= pd * gh
            grads += [dsd * qh, pd * gh]
        for a, ga in zip(parents, grads):
            if a.requires_grad:
                a._accum(merge(ga))

    return Tensor._from_op(merge(out), parents, backward)


def _act_quant_fn(cfg: ModelConfig):
    if cfg.kv_bits >= 16:
        return lambda x: x
    spec = cfg.token_spec()

    def f(x: Tensor) -> Tensor:
        return Tensor(dequantize(quantize_token(x.data, spec)))

    return f


def _dequantize_raw(blk: DecoderBlockWeights, qk: QuantizedTensor, qv: QuantizedTensor):
    """Raw-space (pre-rotary K) K/V arrays from token codes of the smoothed
    projections: what a cache read returns for the rows it stored."""
    un = lambda x, sp: x if sp is None else apply_kv_smoothing(x, sp, "to_raw")
    return un(dequantize(qk), blk.k.smoothing), un(dequantize(qv), blk.v.smoothing)


def _raw_kv(blk: DecoderBlockWeights, k_s: Tensor, v_s: Tensor,
            spec: TokenQuantSpec | None = None) -> tuple[Tensor, Tensor]:
    """Raw-space attention inputs from the smoothed projections k_s, v_s;
    given a token spec, their cache round trip (quantize, then _dequantize_raw)."""
    if spec is not None:
        k, v = _dequantize_raw(blk, quantize_token(k_s.data, spec), quantize_token(v_s.data, spec))
        return Tensor(k), Tensor(v)
    un = lambda x, sp: x if sp is None else Tensor(apply_kv_smoothing(x.data, sp, "to_raw"))
    return un(k_s, blk.k.smoothing), un(v_s, blk.v.smoothing)


def block_tensors(blk: DecoderBlockWeights) -> dict[str, Tensor]:
    """Wrap a block's weights as (non-differentiable) Tensors for block_core."""
    w = {"attn_norm": Tensor(blk.attn_norm.reshape(1, -1)),
         "mlp_norm": Tensor(blk.mlp_norm.reshape(1, -1))}
    for name, lin in blk.projections().items():
        w[f"{name}_w"] = Tensor(lin.w)
        w[f"{name}_b"] = Tensor(lin.b)
    return w


def block_core(cfg: ModelConfig, w: dict[str, Tensor], x: Tensor, positions: np.ndarray,
               kv_fn, act_fn=None) -> Tensor:
    """One decoder block given weight Tensors and a KV handler.

    kv_fn(k_s, v_s, q_positions) receives the k/v projection outputs and must
    return (k_all_rotated, v_all, offset): raw-space attention inputs covering
    past + current tokens and the causal-mask offset of the current chunk.  A
    fourth element, if returned, is causal_attention's POQ diagonal.
    Both the runtime cache path and the calibration fake-quant path plug in
    through kv_fn, so the surrounding arithmetic is shared bit-for-bit.
    """
    aq = act_fn if act_fn is not None else (lambda y: y)

    xn = rms_norm(x, w["attn_norm"])
    xq = aq(xn)
    q = xq @ w["q_w"] + w["q_b"]
    k_s = xq @ w["k_w"] + w["k_b"]
    v_s = xq @ w["v_w"] + w["v_b"]

    q_rot = rope(q, positions, cfg.rope_base, cfg.head_dim)
    k_all, v_all, offset, *diag = kv_fn(k_s, v_s, positions)
    merged = causal_attention(q_rot, k_all, v_all, cfg.n_heads, offset, *diag)
    out = aq(merged) @ w["o_w"] + w["o_b"]
    x = x + out

    xn2 = rms_norm(x, w["mlp_norm"])
    xq2 = aq(xn2)
    g = xq2 @ w["gate_w"] + w["gate_b"]
    u = xq2 @ w["up_w"] + w["up_b"]
    mid = aq(g.silu() * u)
    return x + (mid @ w["down_w"] + w["down_b"])


def _runtime_kv_fn(cfg: ModelConfig, blk: DecoderBlockWeights, li: int,
                   cache: PoqKvCache | None, mode: str):
    """Attend over the cache's past rows plus the chunk's, then append the chunk's."""
    spec = cfg.token_spec() if mode == "weight_kv" and cfg.kv_quantized and not cfg.poq else None

    def kv_fn(k_s: Tensor, v_s: Tensor, positions: np.ndarray):
        k_raw, v_raw = _raw_kv(blk, k_s, v_s, spec)
        k_all = rope(k_raw, positions, cfg.rope_base, cfg.head_dim)
        v_all = v_raw
        past = 0 if cache is None else cache.length
        if past:
            k_past, v_past = cache.read_raw(li)
            k_past = rope(Tensor(k_past), np.arange(past), cfg.rope_base, cfg.head_dim)
            k_all = concat_rows([k_past, k_all])
            v_all = concat_rows([Tensor(v_past), v_raw])
        if cache is not None:
            cache.append(li, k_s.data, v_s.data, k_raw.data, v_raw.data)
        # past is the causal-mask offset; at 0 the columns cover only the chunk
        return k_all, v_all, past

    return kv_fn


def _poq_kv_fn(cfg: ModelConfig, blk: DecoderBlockWeights):
    """A chunk from position 0 as a POQ cache serves it one step at a time:
    every row's past is the cache round trip, and its own K/V stay fp."""

    def kv_fn(k_s: Tensor, v_s: Tensor, positions: np.ndarray):
        rot = lambda k: rope(k, positions, cfg.rope_base, cfg.head_dim)
        k_past, v_past = _raw_kv(blk, k_s, v_s, cfg.token_spec())
        k_cur, v_cur = _raw_kv(blk, k_s, v_s)
        return rot(k_past), v_past, 0, (rot(k_cur), v_cur)

    return kv_fn


def block_forward(
    cfg: ModelConfig,
    blk: DecoderBlockWeights,
    x: Tensor,
    start_pos: int,
    li: int,
    cache: PoqKvCache | None,
    mode: str,
    act_fn=None,
) -> Tensor:
    """Block li over x, whose first row sits at start_pos (cache.length with a cache)."""
    positions = np.arange(start_pos, start_pos + x.shape[0])
    kv_fn = _runtime_kv_fn(cfg, blk, li, cache, mode)
    return block_core(cfg, block_tensors(blk), x, positions, kv_fn, act_fn=act_fn)


def model_forward(
    model: Model,
    token_ids: np.ndarray,
    cache: PoqKvCache | None = None,
    mode: str | None = None,
) -> Tensor:
    """Forward over a token chunk; returns (T, vocab) logits.

    With a cache, the chunk continues at position cache.length and its KV is
    appended; without one it starts at position 0.
    """
    cfg = model.config
    mode = cfg.quant_mode if mode is None else mode
    if mode not in MODES:
        raise KvqError(f"unknown quant_mode: {mode!r}")
    token_ids = np.asarray(token_ids, dtype=np.int64)
    act_fn = _act_quant_fn(cfg) if mode == "weight_activation" else None
    x = Tensor(model.embed[token_ids])
    start = 0 if cache is None else cache.length
    for li, blk in enumerate(model.blocks):
        x = block_forward(cfg, blk, x, start, li, cache, mode, act_fn=act_fn)
    if cache is not None:
        cache.length += len(token_ids)
    return _head(model, x, act_fn)


def _head(model: Model, x: Tensor, act_fn=None) -> Tensor:
    xn = rms_norm(x, Tensor(model.final_norm.reshape(1, -1)))
    if act_fn is not None:
        xn = act_fn(xn)
    return xn @ Tensor(model.head.w) + Tensor(model.head.b)


def cache_path_forward(model: Model, token_ids: np.ndarray, mode: str | None = None) -> Tensor:
    """(T, vocab) logits of a chunk as prefill of its first token and then one
    decode_step per token give them, in one pass.  Only POQ over a quantized
    cache differs from the cacheless forward; elsewhere the cache holds what
    attention saw."""
    cfg = model.config
    mode = cfg.quant_mode if mode is None else mode
    if not (mode == "weight_kv" and cfg.kv_quantized and cfg.poq):
        return model_forward(model, token_ids, mode=mode)
    positions = np.arange(len(token_ids))
    x = Tensor(model.embed[token_ids])
    for blk in model.blocks:
        x = block_core(cfg, block_tensors(blk), x, positions, _poq_kv_fn(cfg, blk))
    return _head(model, x)


def prefill(model: Model, token_ids: np.ndarray, mode: str | None = None):
    """Single pass over the prompt; returns (logits, populated cache)."""
    cache = PoqKvCache(model.config, model.blocks, mode=mode)
    return model_forward(model, token_ids, cache=cache, mode=mode), cache


def decode_step(model: Model, token_id: int, cache: PoqKvCache, mode: str | None = None) -> Tensor:
    """One generation step; past KV read from the cache, current KV full precision."""
    if cache.length < 1:
        raise KvqError("decode_step requires a non-empty cache (run prefill first)")
    return model_forward(model, np.asarray([token_id]), cache=cache, mode=mode)


def generate(model: Model, prompt_ids: np.ndarray, n_new: int, mode: str | None = None) -> np.ndarray:
    """Deterministic greedy continuation; returns prompt + generated ids."""
    prompt_ids = np.asarray(prompt_ids, dtype=np.int64)
    if n_new < 0:
        raise KvqError(f"n_new must be >= 0, got {n_new}")
    out = list(prompt_ids)
    if n_new == 0:
        return np.asarray(out, dtype=np.int64)
    logits, cache = prefill(model, prompt_ids, mode=mode)
    nxt = int(np.argmax(logits.data[-1]))
    out.append(nxt)
    for _ in range(n_new - 1):
        logits = decode_step(model, nxt, cache, mode=mode)
        nxt = int(np.argmax(logits.data[-1]))
        out.append(nxt)
    return np.asarray(out, dtype=np.int64)


def spread_kv_channels(model: Model, log_range: float = 2.0, seed: int = 0) -> None:
    """Rescale K/V channels without changing the model function.

    Real decoder KV activations concentrate their dynamic range in a few
    channels; tiny randomly-initialized models do not.  This injects that
    heterogeneity exactly: K columns are scaled per rotary pair with the
    inverse applied to Q (dot products unchanged), and V columns are scaled
    with the inverse applied to the o-projection rows.  Weight codes of the
    rescaled projections no longer describe them and are dropped.
    """
    cfg = model.config
    rng = np.random.default_rng(seed)
    d, half = cfg.head_dim, cfg.head_dim // 2
    for blk in model.blocks:
        pair = np.exp(rng.uniform(-log_range, log_range, (cfg.n_heads, half)))
        k_scale = np.concatenate([pair, pair], axis=1).reshape(-1).astype(np.float32)
        v_scale = np.exp(rng.uniform(-log_range, log_range, cfg.hidden_size)).astype(
            np.float32
        )
        blk.k.w = (blk.k.w * k_scale[None, :]).astype(np.float32)
        blk.k.b = (blk.k.b * k_scale[None, :]).astype(np.float32)
        blk.q.w = (blk.q.w / k_scale[None, :]).astype(np.float32)
        blk.q.b = (blk.q.b / k_scale[None, :]).astype(np.float32)
        blk.v.w = (blk.v.w * v_scale[None, :]).astype(np.float32)
        blk.v.b = (blk.v.b * v_scale[None, :]).astype(np.float32)
        blk.o.w = (blk.o.w / v_scale[:, None]).astype(np.float32)
        for lin in (blk.q, blk.k, blk.v, blk.o):
            lin.wq = None


# -- quantized-model construction ---------------------------------------------

PROJECTION_NAMES = ("q", "k", "v", "o", "gate", "up", "down")


def attach_kv_smoothing(model: Model, per_layer: list[tuple[SmoothingParams, SmoothingParams]]) -> None:
    """Absorb per-layer (K, V) smoothing params into the k/v projections.

    Weight codes of a rescaled projection no longer describe it and are dropped.
    """
    for blk, (sp_k, sp_v) in zip(model.blocks, per_layer):
        if not sp_k.is_identity():
            blk.k.w, blk.k.b = absorb_smoothing(blk.k.w, blk.k.b, sp_k)
            blk.k.smoothing, blk.k.wq = sp_k, None
        if not sp_v.is_identity():
            blk.v.w, blk.v.b = absorb_smoothing(blk.v.w, blk.v.b, sp_v)
            blk.v.smoothing, blk.v.wq = sp_v, None


def quantize_model_weights(model: Model, literal_range: bool = False) -> None:
    """Round every block projection to nearest in place (no clipping); biases
    and embeddings stay fp.

    A calibrated model's learned clipping is already in its codes and its w
    is dequantize(codes), so quantizing it again at the same bits and group
    size keeps those codes.
    """
    cfg = model.config
    if cfg.weight_bits >= 16:
        return
    spec = WeightQuantSpec(cfg.weight_bits, cfg.weight_group_size, literal_range=literal_range)
    for blk in model.blocks:
        for lin in blk.projections().values():
            lin.wq = quantize_weight(lin.w, spec)
            lin.w = dequantize(lin.wq)
