"""Small decoder-only transformer (pre-norm attention + gated MLP) with
prefill/decode phases and a past-only-quantized KV cache.

Quantization modes say what a forward does to K/V and activations; whether
the weights are codes is the model's state (each projection's Linear.wq), so
every mode runs the weights the model holds:

* fp                 - full-precision cache and activations.
* weight_kv          - past KV stored as token codes of the smoothed
                       projection outputs; the current step's K/V stay full
                       precision in attention (past-only quantization).
* weight_activation  - per-token RTN quantization of every linear-layer
                       input, full-precision cache (sensitivity harness only).

The paper's W4 setting is a model of W4 codes in fp mode, W4KV4 the same
model in weight_kv and W4A4 in weight_activation.

A cache keeps every layer's past K and V in one store (PoqKvCache).  A
quantized cache (ModelConfig.kv_codes) holds two arrays: the int8 codes of
the pre-rotary smoothed K and V, (n_layers, 2, max_seq_len, hidden), and
their per-(token, group) m and n, (n_layers, 2, 2, max_seq_len, groups).
An fp cache (every other setting) holds one float32 array of K rows,
rotated once at append, and raw V rows, (n_layers, 2, max_seq_len,
hidden).  A quantized cache is read in one of two forms.  The fold: a
decode step onto a cache of at most FOLD_MAX_SEGMENTS segments maps
neither past K nor V back to raw space, and the cache runs the whole
attention read over its codes (PoqKvCache.read_raw): the scaled query's
scores, exp_causal, the values and the division by the row sums.  Its one
caller is the cache's own one-row decode step (PoqKvCache.step).  The
keys' dequantization, un-smoothing and rotation are folded into the query:
with U = cos * (q * s) - sin * (sigma(q) * s) over the past rows' rope
tables, a segment of codes scores n * sum(U * codes) + m * sum(U), which
the step computes without forming U or any past key (PoqKvCache._folded_k).  The
values' dequantization and un-smoothing are folded past the attention
weights.  The fold's cost grows with the number of segments, hidden /
gcd(kv_group_size, head_dim), hence the threshold.  Every other read, a
chunk onto a filled cache (one of one row included) and a decode step onto
a cache of more segments, takes the materialized rows (PoqKvCache.rows): the
past codes dequantized and un-smoothed, K rotated, with the chunk's own
rows last, which causal_attention attends over as it does prefill's.
An fp cache's read takes the stored rows, the chunk's included, as the
arrays prefill attends over.  A cache plans its forwards once, when it is
built (PoqKvCache._plan_reads), so a decode step rebuilds nothing: each
block's weights and KV handler, and for a quantized cache the token spec,
smoothing, each layer's views of the store, segment maps, contraction
matrices and rope tables.  Only a
quantized cache holds read buffers, one pair (scratch and work), shared by
the layers and overwritten by every read; the fold uses scratch alone.  Each
layer's K or V slab of the
store, the read buffers and the rope tables are allocated once on 64-byte
boundaries (tensor.ALIGN), where NumPy's vector loops run the fold's
elementwise passes in about half the time, and without a fill: append
writes a chunk's rows before any read, no read takes the row a decode step
stores, and a read writes the scratch and work rows it then reads.

Setting: a ModelConfig is frozen, so it is checked once, when it is made,
and no config changes after its checks.  A library user changes a model's
setting by giving it a new config, model.config =
dataclasses.replace(model.config, ...), which runs the checks again.  A
forward without a cache runs model.config.  A cache keeps the config it was
built with (PoqKvCache.cfg) and runs the blocks it was built with, so a
decode step runs the setting of its cache whatever config the model holds
by then.

Cache protocol: PoqKvCache.length is the one record of how many positions
the cache holds, and a forward over a chunk starts at that position.  Each
block's KV handler first stores the chunk's rows at length ..  length+t-1,
then reads the past rows 0 ..  length-1.  A decode step onto a cache that
folds reads no codes at length (POQ gives the step's own K/V to attention
at full precision), so it stores every layer's row there at once, after the
last layer (PoqKvCache.step).  On a cache of codes each write assigns
quantizers.token_codes' codes and (m, n) to a view of the store (append's,
code_rows' for a POQ-off chunk's own round trip, or the step's
step_store).  model_forward (or the cache's step) advances
length once, after the last block, so a forward that raises part-way leaves
length unchanged, and the next forward overwrites any rows it had written;
a step that raises has written none.

block_core is the one block forward of prefill, chunks, decode steps onto a
cache that does not fold, cache-path scoring and calibration, all on
float32 arrays.  It treats all heads at once: each of Q and K is rotated by
a single rope call over (T, n_heads * head_dim), and causal_attention
computes every head's scores, exponentials and weighted sum together, the
query scaled first and the division after P . V.  A call of enough rows
first bounds its scores, and when the bound is small its blocks
exponentiate them as they are, with no finite scan or row maximum
(causal_attention).  Each caller hands block_core its weights and KV
handler: model_forward block_arrays and _runtime_kv_fn (planned once per
cache), calibration a candidate block's arrays and _runtime_kv_fn at POQ
off, or block_arrays and fp_kv_fn for its fp blocks.  block_core does not
know the fold.  Training runs the same ops through its own forward, which
keeps what its backward reads (evaluate.lm_grads), with the whole-matrix
attention whose probabilities that backward reads (softmax_attention,
attention_backward).

A decode step onto a cache that folds is the one forward that does not run
block_core: decode_step hands it to the cache (PoqKvCache.step), which runs
block_core's arithmetic for one row as plain float32 array expressions, in
block_core's order, so every logit, code and (m, n) is the one block_core
would give.  It writes the q/k/v products into preallocated rows,
un-smooths K and V as one (2, hidden) pair, rotates q and k as one (2,
hidden) array at the step's row of the rope table, reads through the fold,
and skips the general path's per-call dispatch, shape checks and rope
table lookups.  Every layer's smoothed K/V row waits in one step buffer,
quantized and stored after the last layer by one core call per span.  On
the served model of tools/ab.py (4 blocks, hidden 128, one BLAS thread,
2-vCPU Xeon VM) 16 steps took 0.83x, 0.88x and 0.88x block_core's time
after prefills of 64, 384 and 896 tokens (medians of 20 alternating
rounds), and the step as it is now took 0.85x, 0.87x and 0.90x the time of
one that appended each layer's row inside its layer (12 rounds).

block_core runs two halves.  The attention half, block_attention, is a
function of its own (rms_norm, the q/k/v projections, rope, the KV handler,
attention and the o projection), so on arrays its locals are freed when it
returns, before the MLP half allocates.  The MLP half is rms_norm and
tensor.gated_mlp, which frees its gate and up projections as soon as it
has read them.

Without a cache, block_core also takes B equal-length sequences stacked as
rows, (B*T, C), each at the same T positions: every op but rope and
attention works row by row, rope gives each sequence the same table rows,
and causal_attention masks each sequence on its own (seqs).  Calibration's
candidate losses and activations, and training, run a batch in one pass
this way.  A forward onto a cache takes one sequence.  Stacking leaves
each sequence's attention bit for bit as its one-sequence call computes it;
only the projections' matmuls see more rows, which can move float32 sums
(and training's weight gradients sum over every sequence).

Attention on arrays takes the query rows ATTN_BLOCK at a time, so a long
chunk never holds its whole (heads, T, T) scores matrix and never scores the
masked keys past a block's last row.  This covers prefill, cacheless
scoring, cache_path_forward and every cache read but the fold; training's
softmax_attention keeps each sequence's whole matrix, whose probabilities
its backward reads.  The blocked calls take the score bound when their
shape pays for it (_bound_pays); one-row reads and the fold run
exp_causal, so decode keeps its order.

So a long chunk on arrays holds its (T, hidden) activations and the MLP's
(T, intermediate) projections whole, but each of its largest transients one
block at a time.  Each query block's scores, product and sums are freed
before the next block allocates its own.  The cache append, the K/V round
trips (POQ off, and cache-path scoring's past rows) and weight_activation's
activation quantizer quantize quantizers.ROW_BLOCK rows at a time.  q, and
the keys when un-smoothing or a round trip made them a fresh array, are
rotated in place; k_s itself is left whole for the append.  On the
benchmark's served model (hidden 128, intermediate 344) an 896-token
prefill peaks at 6.88 MB traced, in attention's last query block, and a
300-row chunk onto a 600-row past at 2.12 MB, at kv_group_size 32 and 2
alike.

Each projection is a Linear, the one owner of its weights, weight codes and
K/V smoothing: after it is built, only Linear.set, .absorb and .quantize
change them.  So the codes always describe w, a projection is smoothed at
most once (a second smoothing raises UsageError), and it is quantized at
most once per spec: its codes are the one record of that state, and
quantizing a projection that holds codes at the spec keeps them.
"""

from __future__ import annotations

import math
import numbers
import weakref
from dataclasses import dataclass, replace

import numpy as np

from .errors import CapacityError, KvqError, UsageError
from .quantizers import (
    QuantizedTensor,
    SmoothingParams,
    TokenQuantSpec,
    WeightQuantSpec,
    _is_int,
    absorb_smoothing,
    apply_kv_smoothing,
    check_bits,
    dequantize,
    pack_codes,
    quantize_token,  # noqa: F401 (the benchmark's tracer wraps quantize_token here)
    quantize_weight,
    token_codes,
)
# the benchmark's tracer wraps rope and softmax_causal where this module looks them up
from .tensor import (RMS_EPS, Tensor, _check_finite, aligned_empty, exp_causal, gated_mlp,
                     linear, rms_norm, rope, rope_table, sequences, softmax_causal)

MODES = ("fp", "weight_kv", "weight_activation")
# a block's projections, in DecoderBlockWeights order
PROJECTIONS = ("q", "k", "v", "o", "gate", "up", "down")


@dataclass(frozen=True)
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
        counts = ("n_layers", "n_heads", "head_dim", "intermediate_size", "kv_group_size",
                  "weight_group_size")
        for name in counts + ("hidden_size", "vocab_size", "max_seq_len"):
            if not _is_int(getattr(self, name)):
                raise KvqError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in counts:
            if getattr(self, name) < 1:
                raise KvqError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.head_dim % 2:
            raise KvqError(f"head_dim must be even (rope rotates pairs), got {self.head_dim}")
        if self.hidden_size != self.n_heads * self.head_dim:
            raise KvqError(
                f"hidden_size {self.hidden_size} != n_heads*head_dim "
                f"{self.n_heads}*{self.head_dim}"
            )
        if self.max_seq_len < 1 or self.vocab_size < 2:
            raise KvqError("max_seq_len must be >= 1 and vocab_size >= 2")
        base = self.rope_base
        if isinstance(base, bool) or not isinstance(base, numbers.Real) or not 0 < base < math.inf:
            raise KvqError(f"rope_base must be a finite positive number, got {base!r}")
        if not isinstance(self.poq, bool):
            raise KvqError(f"poq must be true or false, got {self.poq!r}")
        if self.quant_mode not in MODES:
            raise KvqError(f"unknown quant_mode: {self.quant_mode!r}")
        for name in ("kv_bits", "weight_bits"):
            check_bits(name, getattr(self, name))

    @property
    def kv_quantized(self) -> bool:
        return self.kv_bits < 16

    @property
    def kv_codes(self) -> bool:
        """Whether a cache of this config stores K/V as token codes; every
        other cache stores them as float32 rows."""
        return self.quant_mode == "weight_kv" and self.kv_quantized

    def token_spec(self) -> TokenQuantSpec:
        return TokenQuantSpec(bits=self.kv_bits, group_size=self.kv_group_size)

    def weight_spec(self) -> WeightQuantSpec | None:
        """The spec block projections are quantized at, or None at 16 bits,
        where they stay unquantized."""
        if self.weight_bits >= 16:
            return None
        return WeightQuantSpec(bits=self.weight_bits, group_size=self.weight_group_size)

    def projection_shapes(self) -> dict[str, tuple[int, int]]:
        """(C_in, C_out) of each block projection, in PROJECTIONS order."""
        c, i = self.hidden_size, self.intermediate_size
        return dict(zip(PROJECTIONS, [(c, c)] * 4 + [(c, i), (c, i), (i, c)]))


@dataclass
class Linear:
    """One projection x @ w + b, the one owner of its weights, codes and K/V
    smoothing.  Once it is built, only its methods change them, so the codes
    always describe w and the projection is smoothed at most once.

    Its codes are held as a checkpoint stores them: wq.codes is the
    packed_size-byte stream of pack_codes, beside wq's (groups, C_out) h and
    z, not one code per byte.  They are unpacked only for as long as a
    caller needs them, to form w: here (quantize) and in load_model."""

    w: np.ndarray  # (C_in, C_out)
    b: np.ndarray  # (1, C_out)
    smoothing: SmoothingParams | None = None
    # weight codes as the packed stream; when set, w is their dequantization
    # and a checkpoint stores wq as it is
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

    def holds(self, spec: WeightQuantSpec | None) -> bool:
        """Whether the projection holds codes at spec."""
        return (self.wq is not None and spec is not None
                and (self.wq.bits, self.wq.group_size) == (spec.bits, spec.group_size))

    def quantize(self, spec: WeightQuantSpec) -> None:
        """Fix the weight codes at spec; w becomes their dequantization, and
        wq keeps them packed.  Codes already held at spec are kept as they
        are, so quantizing twice is quantizing once."""
        if self.holds(spec):
            return
        qt = quantize_weight(self.w, spec)
        self.w = dequantize(qt)
        self.wq = replace(qt, codes=pack_codes(qt.codes, qt.bits))


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
        return {name: getattr(self, name) for name in PROJECTIONS}


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


# A decode step reads the cache through the fold (PoqKvCache.read_raw) only
# on a cache of at most this many segments; on others it attends over the
# materialized rows (PoqKvCache.rows).  The fold's two (past, hidden) x
# (hidden, segments) products grow with the count, and materializing does
# not.  On the default config (hidden 128, head_dim 32, one BLAS thread,
# 2-vCPU Xeon VM) a decode step with the K fold took 0.78-1.00x the time of
# one with materialized keys at 4, 8 and 16 segments (kv_group_size 32, 16,
# 8) and 0.95-1.02x at 32, but 1.02-1.08x at 64 and 1.10-1.23x at 128, over
# contexts 64 to 896, with the values folded in both.
FOLD_MAX_SEGMENTS = 32


def _config_read_plan(cfg: ModelConfig) -> dict:
    """The attributes of a quantized PoqKvCache's read plan that depend on its
    config alone, all read-only; cos and sin are views of rope_table's shared
    tables.

    Segments are w = gcd(kv_group_size, head_dim) channels each, inside one
    head and one group.  seg_head and seg_group map segments to heads and
    groups; an identity map (w = head_dim, w = kv_group_size) is a slice, so
    indexing with it is a view, not a gather.  seg_pair picks each segment's
    (head, group) entry.  With at most FOLD_MAX_SEGMENTS segments, decode
    steps fold K (fold_k), and PoqKvCache._folded_k also needs the rope
    tables, the channel order [identity | sigma] (swap; sigma swaps the
    halves of every head), the one-hot maps of channels to segments
    (seg_ones) and heads (head_ones) and of segments to heads (seg_to_head,
    None where segments are heads).

    A rope table row repeats head_dim / 2 angles across the width: cos is
    [c, c] and sin is [-s, s] in every head.  So for (hidden, k) matrices a
    and b, cos @ a + sin @ b = cs_cols.T @ (to_cs @ [a; b]): cs_cols holds
    the table's distinct cos and sin columns as rows, and to_cs sums the
    rows of a and of b over the channels of each angle, with sin's sign.
    """
    c, d, h, length = cfg.hidden_size, cfg.head_dim, cfg.n_heads, cfg.max_seq_len
    w = math.gcd(cfg.kv_group_size, d)
    fold_k = c // w <= FOLD_MAX_SEGMENTS
    seg = np.arange(0, c, w)
    seg_pair = (seg // d, slice(None), seg // cfg.kv_group_size)
    plan = {"seg_width": w, "seg_pair": seg_pair,
            "seg_head": slice(None) if w == d else seg_pair[0],
            "seg_group": slice(None) if w == cfg.kv_group_size else seg_pair[2],
            "fold_k": fold_k}
    if fold_k:
        cos, sin = rope_table(cfg.rope_base, d, c, length)
        cs_cols = aligned_empty((d, length))[0]
        cs_cols[...] = np.concatenate([cos[:length, : d // 2], sin[:length, d // 2 : d]], 1).T
        channel = np.arange(c)
        within = channel % d
        angle = (within % (d // 2) == np.arange(d // 2)[:, None]).astype(np.float32)
        to_cs = np.zeros((d, 2 * c), dtype=np.float32)
        to_cs[: d // 2, :c] = angle
        to_cs[d // 2 :, c:] = np.where(within < d // 2, -angle, angle)
        to_head = lambda a: (a == np.arange(h)[:, None]).astype(np.float32)
        plan.update(
            cos=cos[:length], sin=sin[:length], cs_cols=cs_cols, to_cs=to_cs,
            seg_to_head=None if w == d else to_head(seg_pair[0]),
            swap=np.concatenate([channel, channel.reshape(h, 2, d // 2)[:, ::-1].reshape(-1)]),
            seg_ones=(channel[:, None] // w == np.arange(len(seg))).astype(np.float32),
            head_ones=to_head(channel // d).T)
    for a in plan.values():
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return plan


class PoqKvCache:
    """The past keys and values of every layer, in one K/V store.

    A cache of codes (cfg.kv_codes) holds the token codes of the smoothed
    pre-rotary K and V projections, codes, int8 (n_layers, 2, max_seq_len,
    hidden), and their per-(token, group) parameters, params, float32
    (n_layers, 2, 2, max_seq_len, groups), indexed [layer, K/V, (m/n,) row,
    ...].  Any other cache holds kv, float32 (n_layers, 2, max_seq_len,
    hidden): K rows rotated at append, and V rows raw.  Each (max_seq_len,
    ...) slab is row-major and starts on tensor.ALIGN.  Only a cache of codes
    holds read buffers, one (max_seq_len, hidden) float32 pair, scratch and
    work, shared by the layers and overwritten by every read.

    cfg is the config the cache was built with, kept as given (a ModelConfig
    cannot change), the setting of every forward onto it, and the cache
    plans those forwards with it (_plan_reads).  length counts the positions
    every layer holds; only model_forward and step advance it.  A cache of
    codes is read in two forms: the fold (read_raw) for the cache's own
    decode step (step), onto a cache that folds (fold_k), and the
    materialized rows (rows) for every other read.  It is written by
    append, a chunk's rows one layer at a time, through code_rows' views by
    a POQ-off chunk's own round trip, and by step, which stores every
    layer's row after its last layer; each assigns token_codes' codes and
    (m, n) to views of the store.
    """

    def __init__(self, cfg: ModelConfig, blocks: list[DecoderBlockWeights]):
        self.cfg = cfg
        self.length = 0
        n, t, c = cfg.n_layers, cfg.max_seq_len, cfg.hidden_size
        if cfg.kv_codes:
            g = -(-c // cfg.kv_group_size)
            self.codes = aligned_empty((t, c), np.int8, count=2 * n).reshape(n, 2, t, c)
            self.params = aligned_empty((t, g), count=4 * n).reshape(n, 2, 2, t, g)
            self.scratch, self.work = aligned_empty((t, c), count=2)
        else:
            self.kv = aligned_empty((t, c), count=2 * n).reshape(n, 2, t, c)
        self.fold_k = False
        self._plan_reads(blocks)

    def _plan_reads(self, blocks: list[DecoderBlockWeights]) -> None:
        """Fix what every forward onto the cache needs and none changes, under
        the same rule as cfg: from the config and the blocks as they are now.

        Every cache keeps each block's block_core weights and KV handler
        (block_plan); the weights are also the step's.  The handlers reach
        the cache through a weak proxy, so the plan makes no reference cycle
        and the cache is freed with its last user.  A cache of codes
        (cfg.kv_codes) adds the token spec, each layer's smoothing, each
        layer's views of the store for the reads (layer_reads), the config's
        read plan, built for this cache (_config_read_plan) and, when decode
        steps fold (fold_k), the store's views that a step writes
        (step_store), each layer's K/V un-smoothing pair for the step
        (kv_unsmooth, _unsmooth_pair), V smoothing per segment and K
        contraction matrix k_fold = [C; -C]: C = [segment ones * s | delta
        per head], or the segment ones without K smoothing.  A fold read's
        six slices of the store took about 1.7 us from the whole store and
        1.0 us from a layer's planned views.
        """
        cfg = self.cfg
        proxy = weakref.proxy(self)
        self.block_plan = [(block_arrays(blk), _runtime_kv_fn(cfg, blk, li, proxy))
                           for li, blk in enumerate(blocks)]
        if not cfg.kv_codes:
            return
        self.spec = cfg.token_spec()
        self.kv_smoothing = [(blk.k.smoothing, blk.v.smoothing) for blk in blocks]
        # each layer's views of the store: the (codes, m, n) of its K and of
        # its V, which reads take
        self.layer_reads = [[(self.codes[li, j], *self.params[li, j]) for j in (0, 1)]
                            for li in range(cfg.n_layers)]
        vars(self).update(_config_read_plan(cfg))
        if not self.fold_k:
            return
        # views of the store with its [layer, K/V] axes as one, which a step
        # writes its 2 * n_layers rows to: codes and [m; n]
        params = self.params.transpose(2, 0, 1, 3, 4)  # [m; n] first
        self.step_store = (self.codes.reshape(-1, *self.codes.shape[2:]),
                           params.reshape(2, -1, *params.shape[3:]))
        self.kv_unsmooth = [_unsmooth_pair(*pair) for pair in self.kv_smoothing]
        w = self.seg_width
        self.v_seg_smoothing = [None if sp is None else (sp.s.reshape(-1, 1, w),
                                                         sp.delta.reshape(-1, 1, w))
                                for _, sp in self.kv_smoothing]
        self.k_fold = []
        for sp, _ in self.kv_smoothing:
            fold = self.seg_ones if sp is None else np.concatenate(
                [self.seg_ones * sp.s[:, None], self.head_ones * sp.delta[:, None]], 1)
            self.k_fold.append(np.concatenate([fold, -fold]))

    def append(self, li: int, k_s: np.ndarray, v_s: np.ndarray, k_rot: np.ndarray, v_raw: np.ndarray) -> None:
        """Store a chunk's KV for layer li at rows length .. length+t-1
        (k_s/v_s smoothed, k_rot rotated raw keys, v_raw raw values): codes of
        k_s and v_s, or k_rot and v_raw themselves in the fp layout.  This is
        the write of every forward onto a cache but two, which store the
        codes of their own round trip: a decode step onto a cache that
        folds (step) and, with POQ off, a chunk onto a cache of codes
        (_runtime_kv_fn, through code_rows).  The codes, m and n are
        quantize_token's, ROW_BLOCK rows at a time (token_codes), each block
        stored as it is made.  Rows past the capacity raise CapacityError,
        and non-finite rows of a quantized cache NumericError, before
        anything is stored."""
        if self.cfg.kv_codes:
            # token groups are per row, so quantizing a row block of the stacked
            # K and V rows gives each row the codes of its own quantize_token call
            token_codes((k_s, v_s), self.spec, "cache append", keep=self.code_rows(li, len(k_s)))
        else:
            self.kv[li, :, self._next_rows(len(k_s))] = k_rot, v_raw

    def _next_rows(self, t: int) -> slice:
        """Rows length .. length+t-1, or CapacityError past the capacity."""
        if self.length + t > self.cfg.max_seq_len:
            raise CapacityError(
                f"cache capacity exceeded: {self.length}+{t} > {self.cfg.max_seq_len}"
            )
        return slice(self.length, self.length + t)

    def code_rows(self, li: int, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Layer li's views of a cache of codes at its next t rows, (codes,
        [m; n]) shaped as token_codes' keep takes them for stacked [K; V]
        rows; CapacityError past the capacity, before any view is made."""
        rows = self._next_rows(t)
        return self.codes[li, :, rows], self.params[li, :, :, rows].swapaxes(0, 1)

    def step(self, model: Model, token_id: int) -> Tensor:
        """The (1, vocab) logits of a decode step of token_id, one checked
        token id, onto a cache that folds (fold_k), over the blocks the cache
        planned.  This is decode_step's forward onto such a cache; every
        other forward runs block_core.  It is block_core's arithmetic for one
        row, its attention half written out as the same float32 array
        expressions in the same order, so every logit, code and (m, n) is
        the one block_core gives.  Per layer: rms_norm; the q/k/v products,
        K and V into the layer's rows of one (n_layers, 2, hidden) step
        buffer; K and V un-smoothed together (kv_unsmooth, or with POQ off
        after their round trip, whose codes, m and n it keeps for the
        store); q and k rotated as one (2, hidden) array at
        the step's row of the rope table; the fold (read_raw); the o
        projection; rms_norm of the row (_row_rms_norm) and block_core's own
        gated_mlp.  Then the head, its rms_norm on the row.

        Past-only quantization gives the step's own K/V to attention at full
        precision, so no read of this step takes the codes at position
        length, and the step buffer is stored after the head: every layer's
        rows quantized by one core call per span (with POQ off, each layer's
        codes, m and n as its round trip made them, so every row is
        quantized once) and written by one assignment per store array.  On
        the served model of tools/ab.py with POQ off (one BLAS thread,
        2-vCPU Xeon VM, 20 alternating rounds of 16 steps) a step that
        keeps them took 0.94x the time of one that quantized its rows again
        for the store at context 64 (18 of 20 rounds), and 0.95x at 384.  A
        step that raises writes nothing.  It
        keeps the checks of block_core's path: capacity first, the finite
        checks of rms_norm, rope, exp_causal and the append's (on the step
        buffer, before the store), and length advanced only after the
        store."""
        cfg, pos = self.cfg, self.length
        if pos >= cfg.max_seq_len:
            raise CapacityError(f"cache capacity exceeded: {pos}+1 > {cfg.max_seq_len}")
        h, d, c = cfg.n_heads, cfg.head_dim, cfg.hidden_size
        cos, sin = self.cos[pos], self.sin[pos]
        kv = np.empty((cfg.n_layers, 2, c), dtype=np.float32)  # smoothed K, V rows
        # the store's 2 * n_layers rows at pos, and step buffers of their codes
        # and [m; n]: with POQ off kept from the round trip that attention
        # reads, with POQ on made after the last layer
        codes_at, params_at = self.step_store[0][:, pos], self.step_store[1][:, :, pos]
        codes, params = np.empty_like(codes_at), np.empty_like(params_at)
        x = model.embed[None, token_id]
        for li, (w, _) in enumerate(self.block_plan):
            xn = _row_rms_norm(x, w["attn_norm"])
            qkv = np.empty((3, c), dtype=np.float32)  # q, then raw K and V
            q, k_s, v_s, raw = qkv[:1], kv[li, :1], kv[li, 1:], qkv[1:]
            for out, name in ((q, "q"), (k_s, "k"), (v_s, "v")):
                np.matmul(xn, w[name + "_w"], out=out)
                out += w[name + "_b"]
            at = slice(2 * li, 2 * li + 2)
            y = kv[li] if cfg.poq else token_codes((kv[li],), self.spec,
                                                   keep=(codes[at], params[:, at]), out=raw)
            sp = self.kv_unsmooth[li]
            if sp is None:
                raw[...] = y
            else:
                np.multiply(y, sp[0], out=raw)
                raw += sp[1]
            qk = qkv[:2]
            _check_finite("rope", qk)
            swapped = np.ascontiguousarray(qk.reshape(2, h, 2, d // 2)[:, :, ::-1]).reshape(2, c)
            swapped *= sin
            qk *= cos
            qk += swapped
            x = x + (self.read_raw(li, q, qkv[1:2], qkv[2:]) @ w["o_w"] + w["o_b"])
            x = x + gated_mlp(_row_rms_norm(x, w["mlp_norm"]), w["gate_w"], w["gate_b"],
                              w["up_w"], w["up_b"], w["down_w"], w["down_b"])
        logits = linear(_row_rms_norm(x, model.final_norm), model.head.w, model.head.b)
        if cfg.poq:  # every layer's rows as one part: one core call per span
            token_codes((kv.reshape(-1, c),), self.spec, "cache append", keep=(codes, params))
        codes_at[...], params_at[...] = codes, params
        self.length = pos + 1
        return Tensor(logits)

    def read_raw(self, li: int, q: np.ndarray, k_cur: np.ndarray, v_cur: np.ndarray) -> np.ndarray:
        """Layer li's (1, hidden) attention output for a decode step's
        rotated query q over its past rows 0 .. length-1, held as codes, and
        the step's own raw row k_cur (rotated) and v_cur at length: the
        fold, the read of the cache's own decode step (step), its one
        caller.  Every other read of a cache attends over its rows (rows) in
        causal_attention.

        The query is scaled by 1/sqrt(head_dim) first.  The scores come from
        the codes through the query (_folded_k) and no past key is built.
        exp_causal turns them into unnormalized weights, the values are
        folded past them, and the output is divided by the row sums, as
        causal_attention divides an array read.  The value fold overwrites
        the scratch buffer the keys were read from.

        Quantized values stay codes.  Take a segment of w channels
        (_config_read_plan) with per-token parameters m, n and smoothing s,
        delta.  Over the past rows, P . V_raw = s * ((P * n) . codes + P .
        m) + (sum P) * delta.  Where segments are heads and groups, P * n is
        a broadcast product of views.
        """
        past, h, d, w = self.length, self.cfg.n_heads, self.cfg.head_dim, self.seg_width
        p = self._folded_k(li, (q * np.float32(1.0 / math.sqrt(d))).reshape(h, 1, d), k_cur)
        sums = exp_causal(p, past)
        p_past = p[..., :past]
        out = np.matmul(p[..., past:], v_cur.reshape(h, 1, d))
        v_codes, v_m, v_n = self.layer_reads[li][1]
        codes = self.scratch[:past]
        codes[...] = v_codes[:past]
        p_n = p_past[self.seg_head] * v_n[:past, self.seg_group].T[:, None, :]
        acc = np.matmul(p_n, codes.reshape(past, -1, w).transpose(1, 0, 2))
        # P . m of every (head, group) pair: one product over all heads' rows
        p_m = p_past.reshape(-1, past) @ v_m[:past]
        acc += p_m.reshape(h, -1, p_m.shape[1])[self.seg_pair][..., None]
        sp = self.v_seg_smoothing[li]  # s and delta per segment
        if sp is not None:
            acc *= sp[0]
            p_sum = np.add.reduce(p_past, axis=2)[self.seg_head]
            acc += p_sum[..., None] * sp[1]
        o = out + acc.reshape(h, d // w, -1, w).transpose(0, 2, 1, 3).reshape(out.shape)
        o /= sums
        return o.reshape(1, h * d)

    def rows(self, li: int, k_cur: np.ndarray, v_cur: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Layer li's raw K (rotated) and V rows 0 .. length+t-1 that
        causal_attention reads, the chunk's own k_cur (rotated) and v_cur
        last, after append stored them.  An fp cache gives its stored rows,
        and a cache of codes without a past the chunk's.  Otherwise the past
        codes are dequantized and un-smoothed in place, K in the scratch
        buffer, where it is also rotated, and V in the work buffer."""
        cfg, past = self.cfg, self.length
        end = past + k_cur.shape[0]
        if not cfg.kv_codes:
            return self.kv[li, 0, :end], self.kv[li, 1, :end]
        if not past:
            return k_cur, v_cur
        k, v = self.scratch[:end], self.work[:end]
        spec = self.spec
        for x, (codes, m, n), sp, cur in zip((k, v), self.layer_reads[li], self.kv_smoothing[li],
                                             (k_cur, v_cur)):
            qt = QuantizedTensor("token", codes[:past], spec.bits, spec.group_size,
                                 m=m[:past], n=n[:past])
            dequantize(qt, out=x[:past])
            if sp is not None:
                apply_kv_smoothing(x[:past], sp, out=x[:past])
            x[past:] = cur
        rope(k[:past], np.arange(past), cfg.rope_base, cfg.head_dim, out=k[:past])
        return k, v

    def _folded_k(self, li: int, qh: np.ndarray, k_cur: np.ndarray) -> np.ndarray:
        """The (H, 1, length + 1) scores of the (H, 1, head_dim) query heads
        qh of one rotated row over layer li's past codes, then over the
        step's own rotated key k_cur.  They are linear in the query, so
        read_raw passes it scaled by 1/sqrt(head_dim) and takes them as the
        scaled scores.

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
        (_config_read_plan).  No past key is built, and rotary pairs need not
        share a scale or a group.  A layer without K smoothing has s = 1 and
        no delta term.
        """
        past, h, c = self.length, self.cfg.n_heads, self.cfg.hidden_size
        k_codes, k_m, k_n = self.layer_reads[li][0]
        n_seg = c // self.seg_width
        q = qh.reshape(-1)
        ab = self.k_fold[li] * q[self.swap][:, None]
        # the codes are cast twice into one buffer, not once beside a second
        # one: with one buffer less in cache, steps at context 896 took 0.96x
        # the time, and at 64 and 384 1.00x
        buf, codes = self.scratch[:past], k_codes[:past]
        buf[...] = codes
        np.multiply(self.cos[:past], buf, out=buf)
        seg = buf @ ab[:c, :n_seg]
        buf[...] = codes
        np.multiply(buf, self.sin[:past], out=buf)
        seg += buf @ ab[c:, :n_seg]
        # (segments [+ H], past): sum(U) per segment [, U . (delta / s) per head]
        sums = (self.to_cs @ ab).T @ self.cs_cols[:, :past]
        scores = np.empty((h, 1, past + 1), dtype=np.float32)
        raw = scores[:, 0, :past]
        seg_t = raw if self.seg_to_head is None else np.empty((n_seg, past), dtype=np.float32)
        np.multiply(seg.T, k_n[:past, self.seg_group].T, out=seg_t)
        sums[:n_seg] *= k_m[:past, self.seg_group].T
        seg_t += sums[:n_seg]
        if self.seg_to_head is not None:
            np.matmul(self.seg_to_head, seg_t, out=raw)
        if len(sums) > n_seg:
            raw += sums[n_seg:]
        scores[:, 0, past] = np.add.reduce((q * k_cur[0]).reshape(h, -1), axis=1)
        return scores

    def kv_bytes(self) -> int:
        """Deployment-model byte count of the live cache: packed codes and
        16-bit params, or unquantized rows at fp16, each layer's codes
        rounded down to whole bytes."""
        t, n = self.length, self.cfg.n_layers
        if self.cfg.kv_codes:
            return n * (self.codes[0, :, :t].size * self.cfg.kv_bits // 8
                        + self.params[0, :, :, :t].size * 2)
        return n * self.kv[0, :, :t].size * 2


# -- forward pass -------------------------------------------------------------


# Query rows per attention block.  A block's float32 scores buffer at 4
# heads and 896 keys is 0.9 MB at 64 rows and fits a 4 MB L2 cache, where the
# whole (4, 896, 896) matrix (12.8 MB) does not, and each block scores 64 *
# 63 / 2 masked keys per head.  With blocks that exponentiate small scores
# as they are, a weight_kv prefill on the default config (one BLAS thread,
# 2-vCPU Xeon VM, three rounds of 8 alternating runs at 256, 576 and 896
# tokens) took, per round, 0.99-1.07x the time of 64-row blocks at 32 rows,
# 0.95-1.04x at 96 and 1.00-1.14x at 128.
ATTN_BLOCK = 64

# The largest |score| the array path exponentiates without subtracting the
# row maximum.  Every exponential then lies in [e^-30, e^30], about [9.4e-14,
# 1.1e13], inside float32's normal range [1.2e-38, 3.4e38]: none overflows,
# and none underflows to zero, so every row sum is positive.  A row sum and
# every entry of P . V are at most S * e^30 * max(max|v|, 1) for S keys;
# _small_scores holds that below FLT_MAX / 4, so no partial sum of the
# products can overflow either, whatever order BLAS adds in.
SCORE_LIMIT = 30.0
_SUM_LIMIT = float(np.finfo(np.float32).max) / 4 / math.exp(SCORE_LIMIT)


def _row_rms_norm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """tensor.rms_norm of one (1, C) array row, bit for bit: its sum of
    squares is the same reduction over the same C values, taken as a scalar,
    so the division, the eps and the square root are scalar operations.  A
    finite sum means finite values, so rms_norm's finite check runs only on
    a sum that is not.  At C = 128 a call took 2.9 us against 4.8 us for the
    (1, 1)-array form."""
    ss = np.add.reduce(x * x, axis=None)
    if not math.isfinite(ss):
        _check_finite("rms_norm", x)
    return x / np.sqrt(ss / x.shape[1] + RMS_EPS) * gain


def _small_scores(qs, k, v, n_heads: int, diag, keys: int) -> bool:
    """Whether every score of the scaled query qs against the keys k (and
    the POQ diagonal's k_cur) is at most SCORE_LIMIT in size, and keys
    exponentials of that size weight v (and v_cur), and a column of ones,
    without overflow.

    The bound is Hölder's, max over rows i and heads h of sum over the
    head's channels c of |qs_ic| * max_j |k_jc|, in O((T + S) * C).  It is
    taken in float32 with overflow and invalid-operation warnings silenced:
    a NaN or inf in q, k or v makes the bound or the value maximum NaN or
    inf, and the comparisons fail."""
    d = qs.shape[1] // n_heads
    with np.errstate(over="ignore", invalid="ignore"):
        k_max = np.maximum.reduce(np.abs(k), axis=0)
        v_max = np.maximum.reduce(np.abs(v), axis=None)
        if diag is not None:
            np.maximum(k_max, np.maximum.reduce(np.abs(diag[0]), axis=0), out=k_max)
            v_max = np.maximum(v_max, np.maximum.reduce(np.abs(diag[1]), axis=None))
        # k_max spread over a (C, H) block diagonal: one product sums each head
        head_k = k_max.reshape(n_heads, d, 1) * np.eye(n_heads, dtype=np.float32)[:, None]
        bound = np.maximum.reduce(np.abs(qs) @ head_k.reshape(-1, n_heads), axis=None)
    limit = _SUM_LIMIT / keys
    return bool(bound <= SCORE_LIMIT and v_max < limit and 1.0 < limit)


def _bound_pays(t: int, s: int, d: int) -> bool:
    """Whether a call of t query rows per sequence over s keys, head_dim d,
    takes the score bound.  The bound reads the t + s rows of q and k, d
    channels per head, and a small bound saves passes over each head's t *
    s scores; so a call takes it when it scores at least d entries per row
    read: t * s >= d * (t + s).  A one-row read never does; a chunk onto a
    long past does from about d rows, and a prompt from 2 * d."""
    return t * s >= d * (t + s)


def causal_attention(q, k, v, n_heads: int, diag=None, seqs: int = 1):
    """softmax(q k^T / sqrt(d) + causal mask) v for every head of seqs
    sequences stacked as rows.

    Each sequence attends only within itself.  Its k and v rows are (S, H*D)
    at positions 0 .. S-1, and its q rows are (T, H*D) at the last T of
    them, S-T .. S-1.  The heads are (seqs, H, rows, D) views of the inputs,
    (H, rows, D) for one sequence.

    The (T, H*D) query is scaled once, before any product (training's
    softmax_attention scales the scores instead).  Query rows are taken
    ATTN_BLOCK at a time: rows [a, b) of every sequence score only the keys
    [0, S-T+b) they can see, in a (seqs, H, b-a, S-T+b) buffer, which
    becomes unnormalized exponentials in place.  Their (H, b-a, D) product
    with the values is then divided by the row sums, and written to the
    block's rows of the output.

    A call whose shape pays for it (_bound_pays: T * S >= D * (T + S))
    first bounds every score (_small_scores).  When the bound is at most
    SCORE_LIMIT, each block exponentiates its scores as they are, with no
    finite scan, row maximum or subtraction, and zeroes its masked triangle
    by multiplying its last b-a columns by a 0/1 lower triangle; the values
    carry a column of ones, so the row sums are the last column of P . V.
    Otherwise, and on calls of other shapes, each block runs exp_causal: it
    masks the triangle, checks that the scores are finite and subtracts
    each row's maximum.

    The POQ diagonal diag = (k_cur, v_cur), each shaped as
    q, stands in for the keys and values at column S-T+i of query row i:
    with k and v from the cache round trip, every row attends as a decode
    step does.  Its scores, one einsum over all rows, and its value
    correction v_cur - v[S-T:], are each formed once per call.  Each block
    writes its rows' diagonal scores into its own scores, and reads their
    exponentials back, through one strided view, every (cols + 1)-th entry
    of the flattened block from column S-T+a, with no index arrays; the
    correction, those weights times the block's rows of v_cur - v, is added
    before the division.
    """
    t = q.shape[0] // seqs
    d = q.shape[1] // n_heads
    scale = np.float32(1.0 / math.sqrt(d))
    lead = (seqs,) if seqs > 1 else ()  # one sequence keeps (H, rows, D) heads
    qs = q * scale
    qh, kh, vh = (_heads(a, seqs, n_heads) for a in (qs, k, v))
    s = k.shape[0] // seqs
    offset = s - t
    if diag is not None:
        # the diagonal's scores and value correction, each formed once
        diag_p = np.einsum("...td,...td->...t", qh, _heads(diag[0], seqs, n_heads))
        diag_v = _heads(diag[1], seqs, n_heads) - vh[..., offset:, :]
    small = _bound_pays(t, s, d) and _small_scores(qs, k, v, n_heads, diag, s)
    if small:
        v_ones = np.empty((*lead, n_heads, s, d + 1), dtype=np.float32)
        v_ones[..., :d] = vh
        v_ones[..., d] = 1.0
        vh = v_ones
        tri = np.tri(min(t, ATTN_BLOCK), dtype=np.float32)
    out = np.empty((*lead, t, n_heads, d), dtype=qh.dtype)
    for a in range(0, t, ATTN_BLOCK):
        b = min(a + ATTN_BLOCK, t)
        cols = offset + b
        p = np.matmul(qh[..., a:b, :], kh[..., :cols, :].swapaxes(-1, -2))
        if diag is not None:  # entry (i, offset + a + i) of each head's rows, as a strided view
            p_diag = p.reshape(*p.shape[:-2], -1)[..., offset + a :: cols + 1]
            p_diag[...] = diag_p[..., a:b]
        if small:
            np.exp(p, out=p)
            p[..., offset + a :] *= tri[: b - a, : b - a]
        else:
            sums = exp_causal(p, offset + a)
        o = np.matmul(p, vh[..., :cols, :])
        if diag is not None:
            o[..., :d] += p_diag[..., None] * diag_v[..., a:b, :]
        if small:
            o, sums = o[..., :d], o[..., d:]
        np.divide(o, sums, out=out[..., a:b, :, :].swapaxes(-3, -2))
        del p, o, sums  # so the next block's scores are the only ones held
    return out.reshape(seqs * t, n_heads * d)


def _heads(a: np.ndarray, seqs: int, n_heads: int) -> np.ndarray:
    """The (rows, H*D) rows of seqs stacked sequences as (seqs, H, rows, D)
    head views, (H, rows, D) for one sequence."""
    lead = (seqs,) if seqs > 1 else ()
    return a.reshape(*lead, a.shape[0] // seqs, n_heads, -1).swapaxes(-3, -2)


def _merge(a: np.ndarray) -> np.ndarray:
    """(..., H, rows, D) heads back as (rows, H*D) rows."""
    return a.swapaxes(-3, -2).reshape(-1, a.shape[-3] * a.shape[-1])


def softmax_attention(q, k, v, n_heads: int, seqs: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Training's attention: causal_attention's value, in other float32
    arithmetic.  Each sequence's whole (H, T, S) scores are scaled by
    1/sqrt(D) after the product and become probabilities in place
    (softmax_causal) before P . V.  Returns the (rows, H*D) output and the
    probabilities, which attention_backward reads."""
    t, s = q.shape[0] // seqs, k.shape[0] // seqs
    p = np.matmul(_heads(q, seqs, n_heads), _heads(k, seqs, n_heads).swapaxes(-1, -2))
    p *= np.float32(1.0 / math.sqrt(q.shape[1] // n_heads))
    softmax_causal(p, s - t)
    return _merge(np.matmul(p, _heads(v, seqs, n_heads))), p


def attention_backward(g, q, k, v, p, n_heads: int, seqs: int = 1) -> tuple:
    """The gradients of softmax_attention's output to q, k and v, given g
    and the probabilities p it returned: the softmax's backward dS = P *
    (dP - rowsum(dP * P)) with dP = g V^T, scaled, then dS K, dS^T Q and
    P^T g."""
    gh, qh, kh, vh = (_heads(a, seqs, n_heads) for a in (g, q, k, v))
    dp = np.matmul(gh, vh.swapaxes(-1, -2))
    ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
    del dp
    ds *= np.float32(1.0 / math.sqrt(qh.shape[-1]))
    return (_merge(np.matmul(ds, kh)), _merge(np.matmul(qh.swapaxes(-1, -2), ds).swapaxes(-1, -2)),
            _merge(np.matmul(p.swapaxes(-1, -2), gh)))


def _act_quant_fn(cfg: ModelConfig):
    if cfg.kv_bits >= 16:
        return lambda x: x
    spec = cfg.token_spec()
    return lambda x: token_codes((x,), spec, out=np.empty_like(x))


def _unsmooth_pair(*pair: SmoothingParams | None):
    """A block's (K, V) smoothing pair as one (2, 2, hidden) float32 [s;
    delta] array of [K; V] rows, or None without smoothing.  An absent
    smoothing's rows are s = 1 and delta = -0.0, which give every float32
    value, -0.0 included, back unchanged."""
    if pair == (None, None):
        return None
    c = len(next(sp for sp in pair if sp is not None).s)
    return np.array([[np.ones(c) if sp is None else sp.s for sp in pair],
                     [np.full(c, -0.0) if sp is None else sp.delta for sp in pair]], np.float32)


def _stacked_kv(k_s, v_s, spec: TokenQuantSpec, unsmooth, current: bool, keep=None) -> np.ndarray:
    """The raw [K; V] rows of a chunk, (2, 1 + current, T, hidden): the cache
    round trip of the smoothed k_s and v_s as one stack (token_codes, which
    also writes their codes and [m; n] to keep, when given), with current,
    k_s and v_s themselves after it, then all of them un-smoothed by one
    multiply and one add with the block's planned pair."""
    kv = np.empty((2, 1 + current, *k_s.shape), dtype=np.float32)
    token_codes((k_s, v_s), spec, keep=keep, out=kv[:, 0])
    if current:
        kv[0, 1], kv[1, 1] = k_s, v_s
    if unsmooth is not None:
        kv *= unsmooth[0][:, None, None]
        kv += unsmooth[1][:, None, None]
    return kv


def block_arrays(blk: DecoderBlockWeights) -> dict[str, np.ndarray]:
    """A block's weights as the arrays block_core takes."""
    w = {"attn_norm": blk.attn_norm.reshape(1, -1), "mlp_norm": blk.mlp_norm.reshape(1, -1)}
    for name, lin in blk.projections().items():
        w[f"{name}_w"] = lin.w
        w[f"{name}_b"] = lin.b
    return w


def block_core(cfg: ModelConfig, w: dict, x, positions: np.ndarray, kv_fn, act_fn=None):
    """One decoder block given its weights and a KV handler: its attention
    half (block_attention), then its MLP half, rms_norm and gated_mlp, each
    added to the residual.

    x stacks equal-length sequences as rows, each at positions (so a row
    count that is not a multiple of len(positions) raises DimensionError).
    kv_fn(k_s, v_s, q_positions) receives the k/v projection outputs and
    returns (k_all_rotated, v_all): raw-space attention inputs covering past
    + current tokens of each sequence, the chunk's rows last, so the causal
    mask follows from their row counts.  A third element, if returned, is
    causal_attention's POQ diagonal.  A decode step onto a cache that folds
    does not come here: the cache runs it (PoqKvCache.step).  Every
    caller plugs in through kv_fn, so the surrounding arithmetic is shared
    bit-for-bit.
    act_fn quantizes the input of every projection.
    """
    x = block_attention(cfg, w, x, positions, kv_fn, act_fn)
    xn = rms_norm(x, w["mlp_norm"])
    if act_fn is not None:
        xn = act_fn(xn)
    return x + gated_mlp(xn, w["gate_w"], w["gate_b"], w["up_w"], w["up_b"], w["down_w"],
                         w["down_b"], act_fn)


def block_attention(cfg: ModelConfig, w: dict, x, positions: np.ndarray, kv_fn, act_fn=None):
    """block_core's attention half: x plus the o projection of the attention
    of rms_norm(x)'s rotated q over what kv_fn makes of its k and v."""
    aq = act_fn if act_fn is not None else (lambda y: y)
    seqs = sequences(x.shape[0], positions)
    xq = aq(rms_norm(x, w["attn_norm"]))
    q = linear(xq, w["q_w"], w["q_b"])
    k_s = linear(xq, w["k_w"], w["k_b"])
    v_s = linear(xq, w["v_w"], w["v_b"])
    del xq  # on arrays each is freed once its last reader has run
    q = rope(q, positions, cfg.rope_base, cfg.head_dim, out=q)  # the projection's own buffer
    kv = kv_fn(k_s, v_s, positions)
    del k_s, v_s
    merged = causal_attention(q, *kv[:2], cfg.n_heads, *kv[2:], seqs=seqs)
    return x + linear(aq(merged), w["o_w"], w["o_b"])


def fp_kv_fn(cfg: ModelConfig):
    """The KV handler of a cacheless forward whose k/v outputs are raw K/V:
    K rotated, V as it is (training, and calibration's activations and fp
    blocks, which are never smoothed)."""
    return lambda k_s, v_s, positions: (rope(k_s, positions, cfg.rope_base, cfg.head_dim), v_s)


def _runtime_kv_fn(cfg: ModelConfig, blk: DecoderBlockWeights, li: int, cache: PoqKvCache | None):
    """Un-smooth and rotate the chunk's keys (with POQ off over a cache of
    codes, their round trip: the K and V rows stacked, round-tripped and
    un-smoothed as one array, _stacked_kv, as cache-path scoring's past
    rows are) and store the chunk's rows in the cache.  With POQ off the
    round trip writes its codes, m and n straight into the cache's rows
    (code_rows, which checks the capacity first), so each row is quantized
    once; every other forward onto a cache appends (PoqKvCache.append).
    Then attention reads the cache's rows (PoqKvCache.rows): its past rows
    plus the chunk's.  The fold, PoqKvCache.read_raw, is not among them:
    only the cache's own decode step (PoqKvCache.step) reads it.  A cache
    needs array inputs of one sequence; stacked sequences raise
    UsageError."""
    spec = cfg.token_spec() if cfg.kv_codes and not cfg.poq else None
    smoothing = (blk.k.smoothing, blk.v.smoothing)
    unsmooth = _unsmooth_pair(*smoothing)

    def kv_fn(k_s, v_s, positions: np.ndarray):
        if cache is not None and k_s.shape[0] != len(positions):
            raise UsageError(f"a forward onto a cache takes one sequence, got "
                             f"{k_s.shape[0]} rows at {len(positions)} positions")
        if spec is not None:
            keep = None if cache is None else cache.code_rows(li, len(k_s))
            k_raw, v_raw = _stacked_kv(k_s, v_s, spec, unsmooth, False, keep)[:, 0]
        else:
            k_raw, v_raw = [x if sp is None else apply_kv_smoothing(x, sp)
                            for x, sp in zip((k_s, v_s), smoothing)]
        # un-smoothed or round-tripped keys are a fresh array, rotated in
        # place; k_s itself is left for the append to read
        k_rot = rope(k_raw, positions, cfg.rope_base, cfg.head_dim,
                     out=None if k_raw is k_s else k_raw)
        if cache is None:
            return k_rot, v_raw
        if spec is None:
            cache.append(li, k_s, v_s, k_rot, v_raw)
        return cache.rows(li, k_rot, v_raw)

    return kv_fn


def _poq_kv_fn(cfg: ModelConfig, blk: DecoderBlockWeights):
    """A chunk from position 0 as a POQ cache serves it one step at a time:
    every row's past is the cache round trip, and its own K/V stay fp.

    The K/V work is one of each essential pass: the chunk's K and V rows
    round-trip as one stack, one token_codes call; its (2, 2, T, hidden)
    [K; V] x [past; current] rows are un-smoothed by one multiply and one
    add with the block's planned pair (_stacked_kv); and the past and
    current keys are rotated in place by one rope call, as two stacked
    sequences at the same positions.  On block 1 of the served model of
    tools/ab.py (one BLAS thread, 2-vCPU Xeon VM, 400 interleaved calls)
    the handler took 0.77x, 0.83x and 0.86x the time at 64, 128 and 192
    tokens of one that round-tripped, un-smoothed and rotated K and V,
    past and current, each on its own (two quantize_token, two
    dequantize, four apply_kv_smoothing and two rope calls)."""

    spec, unsmooth = cfg.token_spec(), _unsmooth_pair(blk.k.smoothing, blk.v.smoothing)

    def kv_fn(k_s, v_s, positions: np.ndarray):
        kv = _stacked_kv(k_s, v_s, spec, unsmooth, True)
        k = kv[0].reshape(-1, kv.shape[-1])  # past and current keys, two stacked sequences
        rope(k, positions, cfg.rope_base, cfg.head_dim, out=k)
        return kv[0, 0], kv[1, 0], (kv[0, 1], kv[1, 1])

    return kv_fn


def check_token_ids(ids, vocab_size: int, what: str = "a forward's chunk") -> np.ndarray:
    """ids as a one-dimensional int64 array.  UsageError if there are none,
    if they are not one-dimensional or not of an integer dtype (bools,
    floats, strings and objects are refused, not cast), or for an id
    outside [0, vocab_size), which the embedding gather would wrap or fail
    on."""
    ids = np.asarray(ids)
    if not ids.size:
        raise UsageError(f"{what} is empty; it needs at least one token id")
    if ids.ndim != 1:
        raise UsageError(f"{what} must be one-dimensional, got shape {ids.shape}")
    if ids.dtype.kind not in "iu":
        raise UsageError(f"{what} must hold integer token ids, got dtype {ids.dtype}")
    if ids.min() < 0 or ids.max() >= vocab_size:
        bad = ids[(ids < 0) | (ids >= vocab_size)][0]
        raise UsageError(f"{what} holds token id {bad}, outside [0, {vocab_size})")
    return ids.astype(np.int64, copy=False)


def check_capacity(n: int, cfg: ModelConfig, what: str = "chunk") -> None:
    """CapacityError if n positions from position 0 do not fit cfg.max_seq_len."""
    if n > cfg.max_seq_len:
        raise CapacityError(f"{what} of {n} tokens > max_seq_len {cfg.max_seq_len}")


def model_forward(model: Model, token_ids: np.ndarray, cache: PoqKvCache | None = None) -> Tensor:
    """Forward over a token chunk on arrays; returns (T, vocab) logits.

    With a cache, the chunk continues at position cache.length, its KV is
    appended, and it runs the cache's config and the blocks it planned
    (PoqKvCache.block_plan); without one it starts at position 0 and runs
    model.config over handlers built from it, and a chunk longer than
    max_seq_len raises CapacityError.
    """
    token_ids = check_token_ids(token_ids, model.config.vocab_size)
    cfg = model.config if cache is None else cache.cfg
    if cache is None:
        check_capacity(len(token_ids), cfg)
        start, plan = 0, [(block_arrays(blk), _runtime_kv_fn(cfg, blk, li, None))
                          for li, blk in enumerate(model.blocks)]
    else:
        start, plan = cache.length, cache.block_plan
    act_fn = _act_quant_fn(cfg) if cfg.quant_mode == "weight_activation" else None
    positions = np.arange(start, start + len(token_ids))
    x = model.embed[token_ids]
    for w, kv_fn in plan:
        x = block_core(cfg, w, x, positions, kv_fn, act_fn=act_fn)
    if cache is not None:
        cache.length += len(token_ids)
    return _head(model, x, act_fn)


def _head(model: Model, x: np.ndarray, act_fn=None) -> Tensor:
    xn = rms_norm(x, model.final_norm.reshape(1, -1))
    if act_fn is not None:
        xn = act_fn(xn)
    return Tensor(linear(xn, model.head.w, model.head.b))


def cache_path_forward(model: Model, token_ids: np.ndarray) -> Tensor:
    """(T, vocab) logits of a chunk as prefill of its first token and then one
    decode_step per token give them, in one pass on arrays.  Only POQ over a
    quantized cache differs from the cacheless forward; elsewhere the cache
    holds what attention saw, and this is the cacheless forward.  In
    weight_activation mode that forward is not the step loop's value: a
    per-token activation code can round differently between the chunk's and
    a step's matmul shapes, and the logits then differ by up to about 1e-3."""
    cfg = model.config
    if not (cfg.kv_codes and cfg.poq):
        return model_forward(model, token_ids)
    token_ids = check_token_ids(token_ids, cfg.vocab_size)
    check_capacity(len(token_ids), cfg)
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
    """One generation step; past KV read from the cache, current KV full
    precision.  A token_id that is not an integer, or is outside the
    vocabulary, raises UsageError: the range is checked on the integer, and
    one outside it goes through check_token_ids for its message.  Onto a
    cache that folds (fold_k) the cache runs the step (PoqKvCache.step);
    onto any other, model_forward runs it as a one-row chunk."""
    if not _is_int(token_id):
        raise UsageError(f"decode_step takes one integer token id, got {token_id!r}")
    if cache.length < 1:
        raise KvqError("decode_step requires a non-empty cache (run prefill first)")
    if not 0 <= token_id < model.config.vocab_size:
        check_token_ids([token_id], model.config.vocab_size)  # raises its UsageError
    if cache.fold_k:
        return cache.step(model, token_id)
    return model_forward(model, [token_id], cache=cache)


def generate(model: Model, prompt_ids: np.ndarray, n_new: int) -> np.ndarray:
    """Deterministic greedy continuation; returns prompt + generated ids.
    n_new must be an integer (not a bool, UsageError) and >= 0.  The cache
    holds the prompt and every generated token but the last, so a prompt
    and n_new > 0 that need more than max_seq_len positions raise
    CapacityError before any forward runs."""
    prompt_ids = check_token_ids(prompt_ids, model.config.vocab_size, "the prompt")
    if not _is_int(n_new):
        raise UsageError(f"n_new must be an integer, got {n_new!r}")
    if n_new < 0:
        raise KvqError(f"n_new must be >= 0, got {n_new}")
    out = list(prompt_ids)
    if n_new == 0:
        return np.asarray(out, dtype=np.int64)
    check_capacity(len(prompt_ids) + n_new - 1, model.config, "generation's cache")
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
    """Round every block projection to nearest in place at the config's
    weight spec; biases and embeddings stay fp.  A projection that already
    holds codes at that spec (a calibrated or RTN model's) keeps them, h
    and z included (Linear.quantize)."""
    spec = model.config.weight_spec()
    if spec is None:
        return
    for blk in model.blocks:
        for lin in blk.projections().values():
            lin.quantize(spec)
