"""Block-by-block choice of the K/V channel scale/shift under cross-block
reconstruction (CRR) regularization, by a grid over the migration strength.

Each block's candidates scale its activation-statistics init (s_init,
delta_init, init_trainables) by one migration strength alpha, as
SmoothQuant does: s = s_init^alpha and delta = alpha * delta_init, one alpha
for K and V together, at alpha = j / 2^e for j = 0 .. 2^e, e =
CalibConfig.epochs.  alpha = 0 is identity smoothing over the
round-to-nearest weights (RTN) and alpha = 1 the init, and each extra epoch
halves the grid's step, so every grid holds the coarser ones.  Each
candidate is scored by its CRR loss with no gradient, as AWQ searches its
scale exponent, and the block freezes the candidate with the lowest loss
(the earlier, smaller alpha on a tie).

Each block's seven projections are quantized once, round to nearest, before
its candidates: q, o, gate, up and down, which are never smoothed, in place
(model.Linear.quantize, which keeps codes a projection already holds at the
spec), and k and v as an array Q(w) beside their raw weights, which freezing
smooths and then quantizes.  A candidate's block holds Q(w) with its
smoothing absorbed (Linear.absorb: Q(w) / s and (b - delta) / s).  Weight
groups run along input channels and s is per output channel, so Q(w) / s has
the codes that freezing gives, Q(w / s).

Calibration runs on arrays, through the runtime's forward.  A candidate's
loss (crr_loss) is block_core over its block with the runtime's KV handler
at POQ off (each K/V row's cache round trip, then un-smoothing), then the
full-precision blocks i+1 .. i+k-1, and the mean absolute error against the
fp outputs, summed in float64.  The calibration segments have one length,
so every pass stacks them as rows (see model.block_core): the fp activations
of every block come from one pass (collect_activations), the statistics init
from one, and each candidate is scored by one pass over all segments, whose
mean over every row is the mean of the per-segment losses.  No gradient is
taken.  AdamW, the optimizer of the dev trainer evaluate.train_model, stays
in this module, where the benchmark's tracer wraps its step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataFormatError, KvqError, NumericError, UsageError
from .model import (DecoderBlockWeights, Linear, Model, _runtime_kv_fn, block_arrays, block_core,
                    check_capacity, check_token_ids, fp_kv_fn, require_unsmoothed)
from .quantizers import (  # noqa: F401 (the benchmark's tracer wraps fake_quant_token here)
    SmoothingParams, _is_int, check_seed, fake_quant_token, fake_quant_weight, init_smoothing)
from .tensor import linear, rms_norm

ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8
# the largest CalibConfig.epochs: a grid of 2^6 + 1 = 65 candidates per block
MAX_EPOCHS = 6


@dataclass(frozen=True)
class CalibConfig:
    """k: the blocks a loss spans; epochs: the grid's halvings, 2^epochs + 1
    candidates; seed, segments and seg_len: the calibration segments.  Each
    is an integer, not a bool (_is_int), or KvqError; so is a seed below 0
    (check_seed)."""

    k: int = 5
    epochs: int = 2
    seed: int = 0
    segments: int = 32
    seg_len: int = 256

    def __post_init__(self):
        for name in ("k", "epochs", "segments", "seg_len"):
            if not _is_int(getattr(self, name)):
                raise KvqError(f"{name} must be an integer, got {getattr(self, name)!r}")
        check_seed(self.seed)
        if self.k < 1:
            raise KvqError(f"k must be >= 1, got {self.k}")
        if self.segments < 1 or self.seg_len < 1 or not 0 <= self.epochs <= MAX_EPOCHS:
            raise KvqError(f"need segments >= 1, seg_len >= 1, 0 <= epochs <= {MAX_EPOCHS}; "
                           f"got {self.segments}, {self.seg_len}, {self.epochs}")


class AdamW:
    """AdamW at zero weight decay, i.e. Adam, over float32 arrays at one
    learning rate.  It stays in this module for the benchmark's tracer
    (perfbench/tracing.py wraps AdamW.step on this class); train_model is
    its one caller.

    It owns its parameters: construction copies each array it is given into
    params, so a step never writes into an array the caller passed in.
    train_model installs these copies into the model before its first step:
    the model holds one copy of the weights from the first step on, its
    original arrays are never written (and are freed unless the caller
    holds them), and a fit whose step raises leaves the model with the
    arrays of the last completed step.

    step(grads) updates each parameter with its gradient, and its moments m
    and v, in place, through two scratch buffers of the largest parameter's
    size, in the float32 operations, and their order, of the textbook form
    m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g,
    p -= lr * (m / c1) / (sqrt(v / c2) + eps), with c = 1 - b^t.  A
    parameter whose gradient is None is skipped.
    """

    def __init__(self, params, lr: float):
        self.params = [p.copy() for p in params]
        self.lr = lr
        self.t = 0
        size = max((p.size for p in self.params), default=0)
        scratch = np.empty((2, size), dtype=np.float32)
        # per parameter: its moments m, v and its views a, b of the scratch
        self.slots = [(np.zeros_like(p), np.zeros_like(p),
                       *(buf[: p.size].reshape(p.shape) for buf in scratch))
                      for p in self.params]

    # the benchmark's tracer (perfbench/tracing.py) wraps AdamW.step on this class
    def step(self, grads) -> None:
        self.t += 1
        c1, c2 = 1 - ADAM_B1**self.t, 1 - ADAM_B2**self.t
        for p, g, (m, v, a, b) in zip(self.params, grads, self.slots):
            if g is None:
                continue
            m *= ADAM_B1
            m += np.multiply(g, 1 - ADAM_B1, out=a)
            v *= ADAM_B2
            np.multiply(g, 1 - ADAM_B2, out=a)
            v += np.multiply(a, g, out=a)
            np.divide(m, c1, out=a)
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            a /= b
            a *= self.lr
            p -= a


# -- candidates and their loss ------------------------------------------------


def reconstruction_loss(y_hat: np.ndarray, y_ref: np.ndarray) -> float:
    """Mean absolute error, summed in float64."""
    return float(np.mean(np.abs(y_hat - y_ref), dtype=np.float64))


def init_trainables(model: Model, i: int, x: np.ndarray) -> tuple[SmoothingParams, SmoothingParams]:
    """The (K, V) smoothing init of block i: the statistics of its raw K/V
    activations over the calibration tokens, in one pass over the segments
    of x, (segments, T, C), as rows.  (The benchmark's tracer counts calls
    under this name.)"""
    blk = model.blocks[i]
    xn = rms_norm(x.reshape(-1, model.config.hidden_size), blk.attn_norm.reshape(1, -1))
    return (init_smoothing(linear(xn, blk.k.w, blk.k.b)),
            init_smoothing(linear(xn, blk.v.w, blk.v.b)))


def at_strength(init: tuple[SmoothingParams, ...], alpha: float) -> tuple[SmoothingParams, ...]:
    """The smoothing s_init^alpha, alpha * delta_init of each of init: the
    identity at alpha 0 and init itself at 1."""
    return tuple(SmoothingParams(sp.s**alpha, sp.delta * alpha) for sp in init)


def quantized_weights(model: Model, i: int) -> dict[str, np.ndarray]:
    """Block i's seven projection weights rounded to nearest, Q(w), or the
    raw weights at weight_bits 16: what the candidates smooth.  A projection
    that holds codes at the config's spec gives its w, their dequantization;
    the others' w are rounded here.  It changes nothing in the model."""
    spec = model.config.weight_spec()
    return {
        name: lin.w if spec is None or lin.holds(spec)
        else fake_quant_weight(lin.w, spec.bits, spec.group_size)
        for name, lin in model.blocks[i].projections().items()
    }


def candidate_block(model: Model, i: int, smoothing: tuple[SmoothingParams, ...],
                    wq: dict[str, np.ndarray]) -> DecoderBlockWeights:
    """Block i with its quantized_weights wq in place of its weights and the
    (K, V) smoothing absorbed into k and v (Linear.absorb); the model's
    block is left as it is."""
    src = model.blocks[i]
    blk = DecoderBlockWeights(**{name: Linear(wq[name], lin.b)
                                 for name, lin in src.projections().items()},
                              attn_norm=src.attn_norm, mlp_norm=src.mlp_norm)
    blk.k.absorb(smoothing[0])
    blk.v.absorb(smoothing[1])
    return blk


def crr_loss(model: Model, i: int, x: np.ndarray, smoothing: tuple[SmoothingParams, ...],
             calib: CalibConfig, y_ref: np.ndarray, wq: dict[str, np.ndarray]) -> float:
    """Reconstruction loss of block i under the (K, V) smoothing, spanning
    up to k blocks (Qblock_i vs fp); wq is the block's quantized_weights.

    Block i is the candidate_block, run by the runtime's cacheless forward
    at weight_kv with POQ off (_runtime_kv_fn); the blocks after it run full
    precision.  x and y_ref are one segment, (T, C), or equal-length
    segments stacked, (B, T, C), which run as one pass of B * T rows; the
    loss is the mean over every row."""
    cfg = replace(model.config, quant_mode="weight_kv", poq=False)
    seq_len, c = x.shape[-2:]
    positions = np.arange(seq_len)
    blk = candidate_block(model, i, smoothing, wq)
    y = block_core(cfg, block_arrays(blk), x.reshape(-1, c), positions,
                   _runtime_kv_fn(cfg, blk, i, None))
    for fp in model.blocks[i + 1 : i + min(calib.k, cfg.n_layers - i)]:
        y = block_core(cfg, block_arrays(fp), y, positions, fp_kv_fn(cfg))
    return reconstruction_loss(y, y_ref.reshape(-1, c))


# -- calibration driver -------------------------------------------------------


def collect_activations(model: Model, segments: list[np.ndarray]) -> list[np.ndarray]:
    """Full-precision inputs x_i to every block (index n_layers = final
    output) of equal-length token segments, each one (segments, T, C)
    array, from one pass with the segments stacked as rows: the one copy
    calibration holds, which calibrate_block and init_trainables read as
    they are.  The pass is the fp blocks of crr_loss: block_core on arrays
    with fp_kv_fn.

    Each segment is checked as a forward's chunk is (check_token_ids,
    UsageError) and against max_seq_len (check_capacity, CapacityError);
    no segments, or segments of more than one length, raise UsageError."""
    cfg = model.config
    segments = [check_token_ids(seg, cfg.vocab_size, f"calibration segment {i}")
                for i, seg in enumerate(segments)]
    lengths = sorted({len(seg) for seg in segments})
    if len(lengths) != 1:
        raise UsageError(f"calibration takes one or more segments of one length, got "
                         f"lengths {lengths}")
    check_capacity(lengths[0], cfg, "calibration segment")
    ids = np.stack(segments)
    b, t = ids.shape
    positions = np.arange(t)
    xs = [model.embed[ids.reshape(-1)]]
    for blk in model.blocks:
        xs.append(block_core(cfg, block_arrays(blk), xs[-1], positions, fp_kv_fn(cfg)))
    return [x.reshape(b, t, -1) for x in xs]


def freeze_block(model: Model, i: int, smoothing: tuple[SmoothingParams, ...]) -> None:
    """Absorb the (K, V) smoothing and fix the block's weight codes, round
    to nearest.  A projection that holds codes at the spec keeps them
    (Linear.quantize): after calibrate_block, only the absorbed k and v are
    rounded here.

    At weight_bits 16 no codes are made, and an absorbed projection's old
    codes are dropped.
    """
    blk, spec = model.blocks[i], model.config.weight_spec()
    blk.k.absorb(smoothing[0])
    blk.v.absorb(smoothing[1])
    if spec is None:
        return
    for lin in blk.projections().values():
        lin.quantize(spec)


def calibrate_block(model: Model, i: int, calib: CalibConfig,
                    x: np.ndarray, ref: np.ndarray) -> dict:
    """Calibrate and freeze block i on its fp inputs x and the fp outputs ref
    of its k-block span, each (segments, T, C); returns its trace.

    losses holds the crr_loss of each candidate, in alpha order, each one
    pass over every segment.  initial_loss is alpha 0's, the RTN block's;
    final_loss the lowest, whose candidate the block freezes (alpha); failed
    means it kept RTN.  A non-finite loss keeps RTN, with no losses and NaN
    initial and final losses.
    """
    spec = model.config.weight_spec()
    if spec is not None:  # the never-smoothed projections, whose codes freezing keeps
        for name in ("q", "o", "gate", "up", "down"):
            getattr(model.blocks[i], name).quantize(spec)
    wq = quantized_weights(model, i)
    alphas = [j / 2**calib.epochs for j in range(2**calib.epochs + 1)]
    try:
        init = init_trainables(model, i, x)
        losses = [crr_loss(model, i, x, at_strength(init, a), calib, ref, wq) for a in alphas]
        if not np.all(np.isfinite(losses)):
            raise NumericError(f"non-finite calibration loss at block {i}")
        best = losses.index(min(losses))  # the first of equal losses
        kept = at_strength(init, alphas[best])
    except NumericError:
        best, losses = 0, []
        kept = (SmoothingParams.identity(model.config.hidden_size),) * 2
    trace = {
        "block": i,
        "initial_loss": losses[0] if losses else float("nan"),
        "final_loss": losses[best] if losses else float("nan"),
        "alpha": alphas[best],
        "losses": losses,
        "failed": best == 0,
        "params": {f"{name}_{kv}": [float(a.min()), float(a.max())]
                   for kv, sp in zip("kv", kept) for name, a in (("s", sp.s), ("d", sp.delta))},
    }
    freeze_block(model, i, kept)
    return trace


def sample_segments(corpus_ids: np.ndarray, calib: CalibConfig) -> list[np.ndarray]:
    corpus_ids = np.asarray(corpus_ids)
    if len(corpus_ids) < calib.seg_len:
        raise DataFormatError(
            f"corpus has {len(corpus_ids)} tokens, shorter than one "
            f"calibration segment ({calib.seg_len})"
        )
    rng = np.random.default_rng(calib.seed)
    starts = rng.integers(0, len(corpus_ids) - calib.seg_len + 1, size=calib.segments)
    return [corpus_ids[s : s + calib.seg_len].copy() for s in sorted(starts)]


def calibrate_model(model: Model, corpus_ids: np.ndarray, calib: CalibConfig) -> dict:
    """Calibrate all blocks sequentially, in place; returns the report dict.

    The model must be unsmoothed (fp or round-to-nearest): a k or v
    projection that already carries smoothing raises UsageError naming its
    block, before any work.  On return the model carries absorbed smoothing,
    fixed weight codes, and quant_mode="weight_kv".  Segments longer than
    max_seq_len raise CapacityError, and corpus ids that check_token_ids
    refuses UsageError, also before any work.
    """
    require_unsmoothed(model, "calibrate")
    check_capacity(calib.seg_len, model.config, "calibration segment")
    corpus_ids = check_token_ids(corpus_ids, model.config.vocab_size, "the corpus")
    segments = sample_segments(corpus_ids, calib)
    acts = collect_activations(model, segments)
    cfg = model.config
    blocks_trace = []
    for i in range(cfg.n_layers):
        k_eff = min(calib.k, cfg.n_layers - i)
        blocks_trace.append(calibrate_block(model, i, calib, acts[i], acts[i + k_eff]))
    model.config = replace(cfg, quant_mode="weight_kv")
    finals = [b["final_loss"] for b in blocks_trace]
    inits = [b["initial_loss"] for b in blocks_trace]
    ratios = [f / ini for f, ini in zip(finals, inits) if ini and np.isfinite(ini) and ini > 0]
    return {
        "seed": calib.seed,
        "k": calib.k,
        "epochs": calib.epochs,
        "segments": calib.segments,
        "seg_len": calib.seg_len,
        "blocks": blocks_trace,
        "mean_final_initial_ratio": float(np.mean(ratios)) if ratios else 1.0,
    }
