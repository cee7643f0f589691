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

A quantized cache stores pre-rotary smoothed K (and V) as codes, and a
decode step maps neither back to raw space.  The keys' dequantization,
un-smoothing and rotation are folded into the query: with U = cos * (q * s)
- sin * (sigma(q) * s) over the past rows' rope tables, a segment of codes
scores n * sum(U * codes) + m * sum(U), which the step computes without
forming U or any past key (PoqKvCache._folded_k).  Its cost grows with the number of
segments, hidden / gcd(kv_group_size, head_dim), so only a cache of at most
FOLD_MAX_SEGMENTS segments folds K.  The values' dequantization and
un-smoothing are folded past the attention weights (PoqKvCache.read_raw).
A chunk of more than one row onto a filled cache and every K read of a
cache with more segments still build the rotated past keys
(PoqKvCache._materialized_k), which is the fold's equivalence reference.
An fp cache (fp and weight_only) stores each chunk's K rows rotated, once,
at append, and its reads take them as stored.  A cache plans its forwards
once, when it is built (PoqKvCache._plan_reads), so a decode step rebuilds
nothing: each block's weights and KV handler, and for a quantized cache the
token spec, smoothing, segment maps, contraction matrices, rope tables and
a work buffer.  That buffer and the cache's scratch buffer are shared by
the layers and overwritten by every read.  The buffers and rope tables are
allocated once on 64-byte boundaries (tensor.ALIGN), where NumPy's vector
loops run the fold's elementwise passes in about half the time.

Setting: a forward without a cache runs model.config.  A cache keeps a copy
of the config it was built with (PoqKvCache.cfg) and runs the blocks it was
built with, so a decode step runs the setting of its cache whatever
model.config says by then.

Cache protocol: PoqKvCache.length is the one record of how many positions
the cache holds, and a forward over a chunk starts at that position.  Each
block's KV handler first appends the chunk's rows at length .. length+t-1
(append is the only write site and the only capacity check), then reads the
past rows 0 .. length-1.  model_forward advances length once, after the last
block, so a forward that raises part-way leaves length unchanged and the
next forward overwrites the rows it had written.

block_core is the one block forward of prefill, decode, cache-path scoring,
calibration and training.  It treats all heads at once: each of Q and K is
rotated by a single rope call over (T, n_heads * head_dim), and
causal_attention computes every head's scores, in-place causal softmax and
weighted sum together.  Given Tensors (calibration, training) the block is
recorded on the autodiff tape; the runtime forward (prefill, decode_step,
cache_path_forward) passes plain float32 arrays and records nothing.

Without a cache, block_core also takes B equal-length sequences stacked as
rows, (B*T, C), each at the same T positions: every op but rope and
attention works row by row, rope gives each sequence the same table rows,
and causal_attention masks each sequence on its own (seqs).  Training and
calibration's candidate losses and activations run a batch in one pass
this way.  A forward onto a cache takes one sequence.  Stacking leaves
each sequence's attention bit for bit as its one-sequence call computes it;
only the projections' matmuls see more rows, which can move float32 sums
(and the weight gradients sum over every sequence).

Attention takes the query rows ATTN_BLOCK at a time, so a long chunk never
holds its whole (heads, T, T) scores matrix and never scores the masked keys
past a block's last row.  This covers prefill, cacheless scoring and
cache_path_forward.  Two cases stay one block per sequence, the whole
matrix: the tape, whose backward keeps one probabilities buffer, and a
chunk onto a filled cache, whose folded value read overwrites the keys that
later blocks would still need.

Each projection is a Linear, the one owner of its weights, weight codes and
K/V smoothing: after it is built, only Linear.set, .absorb and .quantize
change them.  So the codes always describe w, and a projection is smoothed
at most once (a second smoothing raises UsageError).
"""

from __future__ import annotations

import dataclasses
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, KvqError, UsageError
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
from .tensor import (Tensor, aligned_zeros, rms_norm, rope, rope_table, sequences, silu,
                     softmax_causal)

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
        # token codes are int8 and weight codes uint8; 16 bits and up means unquantized
        for name in ("kv_bits", "weight_bits"):
            bits = getattr(self, name)
            if bits < 2 or 8 < bits < 16:
                raise KvqError(f"{name} must be 2..8 or at least 16, got {bits}")

    @property
    def kv_quantized(self) -> bool:
        return self.kv_bits < 16

    def token_spec(self) -> TokenQuantSpec:
        return TokenQuantSpec(bits=self.kv_bits, group_size=self.kv_group_size)

    def projection_shapes(self) -> dict[str, tuple[int, int]]:
        """(C_in, C_out) of each block projection, in DecoderBlockWeights order."""
        c, i = self.hidden_size, self.intermediate_size
        return {"q": (c, c), "k": (c, c), "v": (c, c), "o": (c, c),
                "gate": (c, i), "up": (c, i), "down": (i, c)}


@dataclass
class Linear:
    """One projection x @ w + b, the one owner of its weights, codes and K/V
    smoothing.  Once it is built, only its methods change them, so the codes
    always describe w and the projection is smoothed at most once."""

    w: np.ndarray  # (C_in, C_out)
    b: np.ndarray  # (1, C_out)
    smoothing: SmoothingParams | None = None
    # weight codes; when set, w == dequantize(wq) and a checkpoint stores only wq
    wq: QuantizedTensor | None = None

    def set(self, w: np.ndarray, b: np.ndarray) -> None:
        """Install new weights; codes no longer describe them and are dropped."""
        self.w, self.b, self.wq = w, b, None

    def absorb(self, sp: SmoothingParams) -> None:
        """Fold K/V smoothing into w and b (absorb_smoothing) and drop the
        codes.  An identity sp changes nothing; a second smoothing raises
        UsageError, since the first would be silently replaced."""
        if sp.is_identity():
            return
        if self.smoothing is not None:
            raise UsageError("projection already carries smoothing; refusing to smooth it twice")
        self.set(*absorb_smoothing(self.w, self.b, sp))
        self.smoothing = sp

    def quantize(self, spec: WeightQuantSpec) -> None:
        """Fix the weight codes at spec; w becomes their dequantization."""
        self.wq = quantize_weight(self.w, spec)
        self.w = dequantize(self.wq)


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
        c, v = config.hidden_size, config.vocab_size
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
                    **{name: lin(*shape, res_std if name in ("o", "down") else std)
                       for name, shape in config.projection_shapes().items()},
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
    def __init__(self, cfg: ModelConfig, quantized: bool):
        c = cfg.hidden_size
        t = cfg.max_seq_len
        self.quantized = quantized
        if quantized:
            g = -(-c // cfg.kv_group_size)
            self.k_codes, self.v_codes = aligned_zeros((t, c), np.int8, count=2)
            self.k_m, self.k_n, self.v_m, self.v_n = aligned_zeros((t, g), count=4)
            self.k_n[...], self.v_n[...] = 1.0, 1.0
        else:
            self.k_fp, self.v_fp = aligned_zeros((t, c), count=2)


# A decode step scores the past keys through the query (_folded_k) only on
# a cache of at most this many segments.  The fold's two (past, hidden) x
# (hidden, segments) products grow with the count, and the materialized read
# does not.  On the default config (hidden 128, head_dim 32, one BLAS
# thread, 2-vCPU Xeon VM) a decode step with the fold took 0.78-1.00x the
# materialized read's time at 4, 8 and 16 segments (kv_group_size 32, 16, 8)
# and 0.95-1.02x at 32, but 1.02-1.08x at 64 and 1.10-1.23x at 128, over
# contexts 64 to 896.
FOLD_MAX_SEGMENTS = 32


class PoqKvCache:
    """Per-layer paged store of past keys/values.

    Quantized layout holds token codes of the smoothed pre-rotary projections
    plus per-(token, group) parameters; the fp layout holds raw-space arrays,
    K rotated at append.  cfg is a copy of the config the cache was built
    with, the setting of every forward onto it, and the cache plans those
    forwards with it (_plan_reads).  length counts the positions every layer
    holds; only model_forward advances it.  One (max_seq_len, hidden) float32
    scratch buffer serves every layer's reads, and a cache whose decode steps
    fold K holds a second one (work).
    """

    def __init__(self, cfg: ModelConfig, blocks: list[DecoderBlockWeights]):
        self.cfg = cfg = dataclasses.replace(cfg)
        quantized = cfg.quant_mode == "weight_kv" and cfg.kv_quantized
        self.layers = [LayerCache(cfg, quantized) for _ in range(cfg.n_layers)]
        self.length = 0
        self.scratch = aligned_zeros((cfg.max_seq_len, cfg.hidden_size))[0]
        self.fold_k = False
        self._plan_reads(blocks, quantized)

    def _plan_reads(self, blocks: list[DecoderBlockWeights], quantized: bool) -> None:
        """Fix what every forward onto the cache needs and none changes, under
        the same rule as cfg: from the config and the blocks as they are now.

        Every cache keeps each block's block_core weights and KV handler
        (block_plan).  The handlers reach the cache through a weak proxy, so
        the plan makes no reference cycle and the cache is freed with its
        last user.  A quantized cache adds the token spec, each layer's
        smoothing and the segments (w = gcd(kv_group_size, head_dim) channels
        each, inside one head and one group).  seg_head and seg_group map
        segments to heads and groups; an identity map (w = head_dim, w =
        kv_group_size) is a slice, so indexing with it is a view, not a
        gather.  seg_pair picks each segment's (head, group) entry.  With at
        most FOLD_MAX_SEGMENTS segments, decode steps fold K (fold_k), and
        _folded_k also needs the rope tables, a work buffer, the channel
        order [identity | sigma] (swap; sigma swaps the halves of every head)
        and each layer's K contraction matrix k_fold = [C; -C]: C = [segment
        ones * s | delta per head], or the segment ones without K smoothing.

        A rope table row repeats head_dim / 2 angles across the width: cos is
        [c, c] and sin is [-s, s] in every head.  So for (hidden, k) matrices
        a and b, cos @ a + sin @ b = cs_cols.T @ (to_cs @ [a; b]): cs_cols
        holds the table's distinct cos and sin columns as rows, and to_cs
        sums the rows of a and of b over the channels of each angle, with
        sin's sign.
        """
        cfg = self.cfg
        proxy = weakref.proxy(self)
        self.block_plan = [(block_arrays(blk), _runtime_kv_fn(cfg, blk, li, proxy, cfg.quant_mode))
                           for li, blk in enumerate(blocks)]
        if not quantized:
            return
        c, d, h, length = cfg.hidden_size, cfg.head_dim, cfg.n_heads, cfg.max_seq_len
        self.spec = cfg.token_spec()
        self.kv_smoothing = [(blk.k.smoothing, blk.v.smoothing) for blk in blocks]
        self.seg_width = w = math.gcd(cfg.kv_group_size, d)
        seg = np.arange(0, c, w)
        self.seg_pair = (seg // d, slice(None), seg // cfg.kv_group_size)
        self.seg_head = slice(None) if w == d else self.seg_pair[0]
        self.seg_group = slice(None) if w == cfg.kv_group_size else self.seg_pair[2]
        self.fold_k = len(seg) <= FOLD_MAX_SEGMENTS
        if not self.fold_k:
            return
        cos, sin = rope_table(cfg.rope_base, d, c, length)
        self.cos, self.sin = cos[:length], sin[:length]
        self.cs_cols = aligned_zeros((d, length))[0]
        self.cs_cols[...] = np.concatenate([cos[:length, : d // 2], sin[:length, d // 2 : d]], 1).T
        channel = np.arange(c)
        within = channel % d
        angle = (within % (d // 2) == np.arange(d // 2)[:, None]).astype(np.float32)
        self.to_cs = np.zeros((d, 2 * c), dtype=np.float32)
        self.to_cs[: d // 2, :c] = angle
        self.to_cs[d // 2 :, c:] = np.where(within < d // 2, -angle, angle)
        to_head = lambda a: (a == np.arange(h)[:, None]).astype(np.float32)
        self.seg_to_head = None if w == d else to_head(self.seg_pair[0])
        self.swap = np.concatenate([channel, channel.reshape(h, 2, d // 2)[:, ::-1].reshape(-1)])
        self.work = aligned_zeros((length, c))[0]
        ones = (channel[:, None] // w == np.arange(len(seg))).astype(np.float32)
        head = to_head(channel // d).T
        self.k_fold = []
        for sp, _ in self.kv_smoothing:
            fold = ones if sp is None else np.concatenate([ones * sp.s[:, None],
                                                           head * sp.delta[:, None]], 1)
            self.k_fold.append(np.concatenate([fold, -fold]))

    def append(self, li: int, k_s: np.ndarray, v_s: np.ndarray, k_rot: np.ndarray, v_raw: np.ndarray) -> None:
        """Store a chunk's KV for layer li at rows length .. length+t-1
        (k_s/v_s smoothed, k_rot rotated raw keys, v_raw raw values): codes of
        k_s and v_s, or k_rot and v_raw themselves in the fp layout."""
        t = k_s.shape[0]
        start = self.length
        if start + t > self.cfg.max_seq_len:
            raise CapacityError(
                f"cache capacity exceeded: {start}+{t} > {self.cfg.max_seq_len}"
            )
        lc = self.layers[li]
        rows = slice(start, start + t)
        if lc.quantized:
            # token groups are per row, so one call over the stacked K and V
            # rows gives each the codes of its own call
            q = quantize_token(np.concatenate([k_s, v_s]), self.spec)
            lc.k_codes[rows], lc.v_codes[rows] = q.codes[:t], q.codes[t:]
            lc.k_m[rows], lc.v_m[rows] = q.m[:t], q.m[t:]
            lc.k_n[rows], lc.v_n[rows] = q.n[:t], q.n[t:]
        else:
            lc.k_fp[rows] = k_rot
            lc.v_fp[rows] = v_raw

    def read_raw(self, li: int, k_cur: np.ndarray, v_cur: np.ndarray):
        """Layer li's attention inputs over its rows 0 .. length-1 and the
        chunk's raw rows k_cur (rotated), v_cur at length .. length+t-1.

        Returns (k, v).  v(p) applies (H, T, length + t) attention weights to
        the values, giving (H, T, head_dim).  On a decode step (one row) onto
        a quantized cache that folds K (fold_k), k(qh) maps the (H, 1,
        head_dim) rotated query to its (H, 1, length + 1) raw scores
        (_folded_k) and no past key is built.  Otherwise k is the (length +
        t, hidden) rotated keys (_materialized_k), the fold's equivalence
        reference.  v(p) overwrites the scratch buffer, so k must be used
        before v is called.

        Quantized values stay codes.  Take a segment of w channels
        (_plan_reads) with per-token parameters m, n and smoothing s, delta.
        Over the past rows, P . V_raw = s * ((P * n) . codes + P . m) + (sum
        P) * delta.  Where segments are heads and groups, P * n is a
        broadcast product of views.
        """
        cfg, lc = self.cfg, self.layers[li]
        past, t = self.length, k_cur.shape[0]
        if self.fold_k and t == 1:
            k = self._folded_k(li, k_cur)
        else:
            k = self._materialized_k(li, k_cur)

        h, d = cfg.n_heads, cfg.head_dim
        heads = lambda a: a.reshape(a.shape[0], h, d).transpose(1, 0, 2)

        def v(p: np.ndarray) -> np.ndarray:
            p_past = p[..., :past]
            out = np.matmul(p[..., past:], heads(v_cur))
            if not lc.quantized:
                return out + np.matmul(p_past, heads(lc.v_fp[:past]))
            w = self.seg_width
            codes = self.scratch[:past]
            codes[...] = lc.v_codes[:past]
            p_n = p_past[self.seg_head] * lc.v_n[:past, self.seg_group].T[:, None, :]
            acc = np.matmul(p_n, codes.reshape(past, -1, w).transpose(1, 0, 2))
            # P . m of every (head, group) pair: one product over all heads' rows
            p_m = p_past.reshape(-1, past) @ lc.v_m[:past]
            acc += p_m.reshape(h, -1, p_m.shape[1])[self.seg_pair][..., None]
            sp = self.kv_smoothing[li][1]
            if sp is not None:
                acc *= sp.s.reshape(-1, 1, w)
                p_sum = np.add.reduce(p_past, axis=2)[self.seg_head]
                acc += p_sum[..., None] * sp.delta.reshape(-1, 1, w)
            return out + acc.reshape(h, d // w, -1, w).transpose(0, 2, 1, 3).reshape(out.shape)

        return k, v

    def _materialized_k(self, li: int, k_cur: np.ndarray) -> np.ndarray:
        """Layer li's past keys and the chunk's own rotated k_cur.  An fp
        cache holds them, appended rotated.  A quantized cache's past codes
        are dequantized, un-smoothed and rotated in place in the scratch
        buffer."""
        cfg, lc = self.cfg, self.layers[li]
        past, t = self.length, k_cur.shape[0]
        if not lc.quantized:
            return lc.k_fp[: past + t]
        k = self.scratch[: past + t]
        qk = QuantizedTensor("token", lc.k_codes[:past], self.spec.bits, self.spec.group_size,
                             m=lc.k_m[:past], n=lc.k_n[:past])
        dequantize(qk, out=k[:past])
        sp = self.kv_smoothing[li][0]
        if sp is not None:
            apply_kv_smoothing(k[:past], sp, "to_raw", out=k[:past])
        rope(k[:past], np.arange(past), cfg.rope_base, cfg.head_dim, out=k[:past])
        k[past:] = k_cur
        return k

    def _folded_k(self, li: int, k_cur: np.ndarray):
        """k(qh): one query row's raw scores over layer li's past codes, then
        over the step's own rotated key k_cur, as (H, 1, length + 1).

        A past key is rope_p(s * y + delta), with y = codes * n + m the
        dequantized smoothed row, and q . rope_p(x) = x . (cos_p * q -
        sin_p * sigma(q)) for the rope tables' rows, sigma swapping each
        head's halves.  So with U = cos * (q * s) - sin * (sigma(q) * s) over
        rows 0 .. length-1, a segment's past score is n * sum(U * codes) +
        m * sum(U), plus U . (delta / s) per head.  U is never formed: with
        the contraction matrix scaled by q * s (a) and by sigma(q) * s (b),
        taken as one product [a; -b] = k_fold * [q; sigma(q)], sum(U *
        codes) is (cos * codes) @ a - (sin * codes) @ b over the segment
        columns, and sum(U) with U . (delta / s) = (cos * q - sin *
        sigma(q)) . delta is one product over the tables' distinct columns
        (_plan_reads).  No past key is built, and rotary pairs need not
        share a scale or a group.  A layer without K smoothing has s = 1 and
        no delta term.
        """
        lc, past, h = self.layers[li], self.length, self.cfg.n_heads
        c, fold = self.cfg.hidden_size, self.k_fold[li]
        n_seg = c // self.seg_width

        def k(qh: np.ndarray) -> np.ndarray:
            q = qh.reshape(-1)
            ab = fold * q[self.swap][:, None]
            codes, cos_codes = self.scratch[:past], self.work[:past]
            codes[...] = lc.k_codes[:past]
            np.multiply(self.cos[:past], codes, out=cos_codes)
            sin_codes = np.multiply(codes, self.sin[:past], out=codes)
            seg = cos_codes @ ab[:c, :n_seg]
            seg += sin_codes @ ab[c:, :n_seg]
            # (segments [+ H], past): sum(U) per segment [, U . (delta / s) per head]
            sums = (self.to_cs @ ab).T @ self.cs_cols[:, :past]
            scores = np.empty((h, 1, past + 1), dtype=np.float32)
            raw = scores[:, 0, :past]
            seg_t = raw if self.seg_to_head is None else np.empty((n_seg, past), dtype=np.float32)
            np.multiply(seg.T, lc.k_n[:past, self.seg_group].T, out=seg_t)
            sums[:n_seg] *= lc.k_m[:past, self.seg_group].T
            seg_t += sums[:n_seg]
            if self.seg_to_head is not None:
                np.matmul(self.seg_to_head, seg_t, out=raw)
            if len(sums) > n_seg:
                raw += sums[n_seg:]
            scores[:, 0, past] = np.add.reduce((q * k_cur[0]).reshape(h, -1), axis=1)
            return scores

        return k

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


# Query rows per attention block.  At 128 rows, 4 heads and 896 keys a
# block's float32 scores buffer is 1.8 MB and fits a 4 MB L2 cache, where the
# whole (4, 896, 896) matrix (12.8 MB) does not; smaller blocks add more
# per-block overhead than they save.
ATTN_BLOCK = 128


def causal_attention(q, k, v, n_heads: int, diag=None, seqs: int = 1):
    """softmax(q k^T / sqrt(d) + causal mask) v for every head of seqs
    sequences stacked as rows.

    Each sequence attends only within itself.  Its k and v rows are (S, H*D)
    at positions 0 .. S-1, and its q rows are (T, H*D) at the last T of
    them, S-T .. S-1.  The heads are (seqs, H, rows, D) views of the inputs,
    (H, rows, D) for one sequence.  Query rows are taken ATTN_BLOCK at a
    time: rows [a, b) of every sequence score only the keys [0, S-T+b) they
    can see, in a (seqs, H, b-a, S-T+b) buffer that becomes the
    probabilities in place, and write their rows of the output.  Tensors
    make one tape node whose backward keeps only the inputs and the
    probabilities, so on the tape a sequence is one block.

    Arrays record nothing, and there a cache read of one sequence hands over
    v as a function (PoqKvCache.read_raw): v(p) -> (H, T, D) applies the
    (H, T, S) probabilities, as folded values do.  On a decode step k may be
    one too: k(qh) -> (H, T, S) raw scores of the (H, T, D) query heads, as
    folded keys give them.  Such a read takes every row at once (v(p)
    overwrites the keys' buffer), so it goes straight from the scores to the
    softmax to v, as one block.

    On arrays only, the POQ diagonal diag = (k_cur, v_cur), each shaped as
    q, stands in for the keys and values at column S-T+i of query row i:
    with k and v from the cache round trip, every row attends as a decode
    step does.
    """
    tape = isinstance(q, Tensor)
    data = (lambda a: a.data) if tape else (lambda a: a)
    t = q.shape[0] // seqs
    d = q.shape[1] // n_heads
    scale = np.float32(1.0 / math.sqrt(d))
    lead = (seqs,) if seqs > 1 else ()  # one sequence keeps (H, rows, D) heads

    def heads(a: np.ndarray, rows: int) -> np.ndarray:
        return a.reshape(*lead, rows, n_heads, d).swapaxes(-3, -2)

    def merge(a: np.ndarray) -> np.ndarray:
        return a.swapaxes(-3, -2).reshape(-1, n_heads * d)

    qh = heads(data(q), t)
    if callable(v):
        p = k(qh) if callable(k) else np.matmul(qh, heads(k, k.shape[0]).swapaxes(-1, -2))
        p *= scale
        return merge(v(softmax_causal(p, p.shape[-1] - t)))
    s = k.shape[0] // seqs
    kh, vh = heads(data(k), s), heads(data(v), s)
    offset = s - t
    if diag is not None:
        kch, vch = heads(diag[0], t), heads(diag[1], t)
    step = max(t, 1) if tape else ATTN_BLOCK
    out = np.empty((*lead, t, n_heads, d), dtype=qh.dtype)
    for a in range(0, t, step):
        b = min(a + step, t)
        cols = offset + b
        p = np.matmul(qh[..., a:b, :], kh[..., :cols, :].swapaxes(-1, -2))
        if diag is not None:
            rows = np.arange(b - a)
            ii = (..., rows, rows + offset + a)
            p[ii] = np.einsum("...td,...td->...t", qh[..., a:b, :], kch[..., a:b, :])
        p *= scale
        softmax_causal(p, offset + a)
        o = np.matmul(p, vh[..., :cols, :])
        if diag is not None:
            o += p[ii][..., None] * (vch[..., a:b, :] - vh[..., offset + a : cols, :])
        out[..., a:b, :, :] = o.swapaxes(-3, -2)
    out = out.reshape(seqs * t, n_heads * d)
    if not tape:
        return out

    def backward(g):
        gh = heads(g, t)
        dp = np.matmul(gh, vh.swapaxes(-1, -2))
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
        ds *= scale
        grads = (np.matmul(ds, kh), np.matmul(qh.swapaxes(-1, -2), ds).swapaxes(-1, -2),
                 np.matmul(p.swapaxes(-1, -2), gh))
        for a, ga in zip((q, k, v), grads):
            if a.requires_grad:
                a._accum(merge(ga))

    return Tensor._from_op(out, (q, k, v), backward)


def _act_quant_fn(cfg: ModelConfig):
    if cfg.kv_bits >= 16:
        return lambda x: x
    spec = cfg.token_spec()
    return lambda x: dequantize(quantize_token(x, spec))


def _raw_kv(blk: DecoderBlockWeights, k_s, v_s, spec: TokenQuantSpec | None = None):
    """Raw-space attention inputs from the smoothed projections k_s, v_s;
    given a token spec, their cache round trip (quantize, dequantize, then
    un-smooth).  Tensors must pass through unmapped, as in calibration's fp
    tail blocks, which are never smoothed: calibration refuses a smoothed
    model."""

    def raw(x, sp):
        if spec is not None:
            x = dequantize(quantize_token(x, spec))
        return x if sp is None else apply_kv_smoothing(x, sp, "to_raw")

    return raw(k_s, blk.k.smoothing), raw(v_s, blk.v.smoothing)


def block_arrays(blk: DecoderBlockWeights) -> dict[str, np.ndarray]:
    """A block's weights as the arrays block_core takes."""
    w = {"attn_norm": blk.attn_norm.reshape(1, -1), "mlp_norm": blk.mlp_norm.reshape(1, -1)}
    for name, lin in blk.projections().items():
        w[f"{name}_w"] = lin.w
        w[f"{name}_b"] = lin.b
    return w


def block_tensors(blk: DecoderBlockWeights) -> dict[str, Tensor]:
    """Wrap a block's weights as (non-differentiable) Tensors for block_core."""
    return {name: Tensor(a) for name, a in block_arrays(blk).items()}


def block_core(cfg: ModelConfig, w: dict, x, positions: np.ndarray, kv_fn, act_fn=None):
    """One decoder block given its weights and a KV handler.

    x and the weights are all Tensors (recorded on the tape) or all arrays.
    x stacks equal-length sequences as rows, each at positions (so a row
    count that is not a multiple of len(positions) raises DimensionError).
    kv_fn(k_s, v_s, q_positions) receives the k/v projection outputs and must
    return (k_all_rotated, v_all): raw-space attention inputs covering past +
    current tokens of each sequence, the chunk's rows last, so the causal
    mask follows from their row counts.  A third element, if returned, is
    causal_attention's POQ diagonal; on arrays k_all may be a function of the
    query heads and v_all one of the attention weights (see
    causal_attention).  The runtime
    cache path and the calibration fake-quant path both plug in through
    kv_fn, so the surrounding arithmetic is shared bit-for-bit.
    """
    aq = act_fn if act_fn is not None else (lambda y: y)
    seqs = sequences(x.shape[0], positions)

    xn = rms_norm(x, w["attn_norm"])
    xq = aq(xn)
    q = xq @ w["q_w"] + w["q_b"]
    k_s = xq @ w["k_w"] + w["k_b"]
    v_s = xq @ w["v_w"] + w["v_b"]

    q_rot = rope(q, positions, cfg.rope_base, cfg.head_dim)
    k_all, v_all, *diag = kv_fn(k_s, v_s, positions)
    merged = causal_attention(q_rot, k_all, v_all, cfg.n_heads, *diag, seqs=seqs)
    out = aq(merged) @ w["o_w"] + w["o_b"]
    x = x + out

    xn2 = rms_norm(x, w["mlp_norm"])
    xq2 = aq(xn2)
    g = xq2 @ w["gate_w"] + w["gate_b"]
    u = xq2 @ w["up_w"] + w["up_b"]
    mid = aq(silu(g) * u)
    return x + (mid @ w["down_w"] + w["down_b"])


def _runtime_kv_fn(cfg: ModelConfig, blk: DecoderBlockWeights, li: int,
                   cache: PoqKvCache | None, mode: str):
    """Rotate the chunk's keys, append the chunk's rows to the cache, then
    attend over its past rows plus the chunk's.  A cache needs array inputs
    of one sequence; stacked sequences raise UsageError."""
    spec = cfg.token_spec() if mode == "weight_kv" and cfg.kv_quantized and not cfg.poq else None

    def kv_fn(k_s, v_s, positions: np.ndarray):
        k_raw, v_raw = _raw_kv(blk, k_s, v_s, spec)
        k_rot = rope(k_raw, positions, cfg.rope_base, cfg.head_dim)
        if cache is not None:
            if k_s.shape[0] != len(positions):
                raise UsageError(f"a forward onto a cache takes one sequence, got "
                                 f"{k_s.shape[0]} rows at {len(positions)} positions")
            past = cache.length
            cache.append(li, k_s, v_s, k_rot, v_raw)
            if past:
                return cache.read_raw(li, k_rot, v_raw)
        return k_rot, v_raw

    return kv_fn


def _poq_kv_fn(cfg: ModelConfig, blk: DecoderBlockWeights):
    """A chunk from position 0 as a POQ cache serves it one step at a time:
    every row's past is the cache round trip, and its own K/V stay fp."""

    def kv_fn(k_s, v_s, positions: np.ndarray):
        rot = lambda k: rope(k, positions, cfg.rope_base, cfg.head_dim)
        k_past, v_past = _raw_kv(blk, k_s, v_s, cfg.token_spec())
        k_cur, v_cur = _raw_kv(blk, k_s, v_s)
        return rot(k_past), v_past, (rot(k_cur), v_cur)

    return kv_fn


def block_forward(
    cfg: ModelConfig,
    blk: DecoderBlockWeights,
    x,
    start_pos: int,
    li: int,
    cache: PoqKvCache | None,
    mode: str,
    act_fn=None,
    seq_len: int | None = None,
):
    """Block li over x, whose first row sits at start_pos (cache.length with a
    cache).  Without a cache, x may stack sequences of seq_len rows each (one
    sequence by default).  A Tensor x is recorded on the tape (no cache); an
    array is not.  With a cache, the block runs the weights and KV handler
    the cache planned for layer li (PoqKvCache._plan_reads)."""
    positions = np.arange(start_pos, start_pos + (x.shape[0] if seq_len is None else seq_len))
    if cache is not None:
        w, kv_fn = cache.block_plan[li]
    else:
        kv_fn = _runtime_kv_fn(cfg, blk, li, None, mode)
        w = block_tensors(blk) if isinstance(x, Tensor) else block_arrays(blk)
    return block_core(cfg, w, x, positions, kv_fn, act_fn=act_fn)


def model_forward(model: Model, token_ids: np.ndarray, cache: PoqKvCache | None = None) -> Tensor:
    """Forward over a token chunk on arrays; returns (T, vocab) logits.

    With a cache, the chunk continues at position cache.length, its KV is
    appended, and it runs the cache's config; without one it starts at
    position 0 and runs model.config.
    """
    cfg = model.config if cache is None else cache.cfg
    mode = cfg.quant_mode
    if mode not in MODES:
        raise KvqError(f"unknown quant_mode: {mode!r}")
    token_ids = np.asarray(token_ids, dtype=np.int64)
    act_fn = _act_quant_fn(cfg) if mode == "weight_activation" else None
    x = model.embed[token_ids]
    start = 0 if cache is None else cache.length
    for li, blk in enumerate(model.blocks):
        x = block_forward(cfg, blk, x, start, li, cache, mode, act_fn=act_fn)
    if cache is not None:
        cache.length += len(token_ids)
    return _head(model, x, act_fn)


def _head(model: Model, x: np.ndarray, act_fn=None) -> Tensor:
    xn = rms_norm(x, model.final_norm.reshape(1, -1))
    if act_fn is not None:
        xn = act_fn(xn)
    return Tensor(xn @ model.head.w + model.head.b)


def cache_path_forward(model: Model, token_ids: np.ndarray) -> Tensor:
    """(T, vocab) logits of a chunk as prefill of its first token and then one
    decode_step per token give them, in one pass on arrays.  Only POQ over a
    quantized cache differs from the cacheless forward; elsewhere the cache
    holds what attention saw."""
    cfg = model.config
    if not (cfg.quant_mode == "weight_kv" and cfg.kv_quantized and cfg.poq):
        return model_forward(model, token_ids)
    positions = np.arange(len(token_ids))
    x = model.embed[token_ids]
    for blk in model.blocks:
        x = block_core(cfg, block_arrays(blk), x, positions, _poq_kv_fn(cfg, blk))
    return _head(model, x)


def prefill(model: Model, token_ids: np.ndarray):
    """Single pass over the prompt; returns (logits, populated cache)."""
    cache = PoqKvCache(model.config, model.blocks)
    return model_forward(model, token_ids, cache=cache), cache


def decode_step(model: Model, token_id: int, cache: PoqKvCache) -> Tensor:
    """One generation step; past KV read from the cache, current KV full precision."""
    if cache.length < 1:
        raise KvqError("decode_step requires a non-empty cache (run prefill first)")
    return model_forward(model, np.asarray([token_id]), cache=cache)


def generate(model: Model, prompt_ids: np.ndarray, n_new: int) -> np.ndarray:
    """Deterministic greedy continuation; returns prompt + generated ids."""
    prompt_ids = np.asarray(prompt_ids, dtype=np.int64)
    if n_new < 0:
        raise KvqError(f"n_new must be >= 0, got {n_new}")
    out = list(prompt_ids)
    if n_new == 0:
        return np.asarray(out, dtype=np.int64)
    logits, cache = prefill(model, prompt_ids)
    nxt = int(np.argmax(logits.data[-1]))
    out.append(nxt)
    for _ in range(n_new - 1):
        logits = decode_step(model, nxt, cache)
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
    rescaled projections no longer describe them and are dropped.  A smoothed
    model is refused, since its un-smoothing shift would stay unscaled.
    """
    require_unsmoothed(model, "spread_kv_channels")
    cfg = model.config
    rng = np.random.default_rng(seed)
    d, half = cfg.head_dim, cfg.head_dim // 2
    for blk in model.blocks:
        pair = np.exp(rng.uniform(-log_range, log_range, (cfg.n_heads, half)))
        k_scale = np.concatenate([pair, pair], axis=1).reshape(-1).astype(np.float32)
        v_scale = np.exp(rng.uniform(-log_range, log_range, cfg.hidden_size)).astype(
            np.float32
        )
        blk.k.set(blk.k.w * k_scale, blk.k.b * k_scale)
        blk.q.set(blk.q.w / k_scale, blk.q.b / k_scale)
        blk.v.set(blk.v.w * v_scale, blk.v.b * v_scale)
        blk.o.set(blk.o.w / v_scale[:, None], blk.o.b)


# -- quantized-model construction ---------------------------------------------


def require_unsmoothed(model: Model, action: str) -> None:
    """Raise UsageError naming the first block whose k or v projection carries
    smoothing: action works on raw k/v weights and would mishandle it."""
    for i, blk in enumerate(model.blocks):
        for name in ("k", "v"):
            if getattr(blk, name).smoothing is not None:
                raise UsageError(f"block {i}: the {name} projection already carries smoothing; "
                                 f"{action} takes an unsmoothed (fp or RTN) model")


def attach_kv_smoothing(model: Model, per_layer: list[tuple[SmoothingParams, SmoothingParams]]) -> None:
    """Absorb per-layer (K, V) smoothing params into the k/v projections
    (Linear.absorb: codes dropped, a second smoothing refused)."""
    for blk, (sp_k, sp_v) in zip(model.blocks, per_layer):
        blk.k.absorb(sp_k)
        blk.v.absorb(sp_v)


def quantize_model_weights(model: Model) -> None:
    """Round every block projection to nearest in place; biases and
    embeddings stay fp.

    A calibrated model's w is dequantize(codes), so quantizing it again at
    the same bits and group size keeps those codes.
    """
    cfg = model.config
    if cfg.weight_bits >= 16:
        return
    spec = WeightQuantSpec(cfg.weight_bits, cfg.weight_group_size)
    for blk in model.blocks:
        for lin in blk.projections().values():
            lin.quantize(spec)
